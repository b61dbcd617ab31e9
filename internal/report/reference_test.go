package report_test

import (
	"encoding/json"
	"io"

	"wdpt/internal/report"
)

// referenceEncode is the reflective encoder the report layout is defined
// by: encoding/json's Encoder with two-space indentation and its default
// HTML escaping. The property tests require Encode to write exactly its
// bytes for every report.
func referenceEncode(w io.Writer, r report.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
