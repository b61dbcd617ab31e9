// Package report defines the machine-readable form of one evaluation run —
// the JSON document emitted by wdpteval -json and served verbatim by the
// wdptd query server — together with the error taxonomy both front ends
// share: the CLI exit codes and the HTTP status codes derived from the
// guard sentinels of docs/ROBUSTNESS.md.
//
// The package exists so the two front ends cannot drift: there is exactly
// one Report shape, one encoder, and one classification of budget trips.
// A body produced by the server for a request is byte-identical to what
// wdpteval -json prints for the same query, database, mode, and options
// (pinned by the parity tests in internal/server).
package report

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf8"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/db"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
)

// Report is the machine form of one run, emitted as a single JSON document:
// the mode and engine, then whichever of answers / result / plans / counters
// the options and mode produced. Field order is part of the byte-stable
// output contract.
type Report struct {
	// Mode is the requested evaluation mode (the wdpteval -mode vocabulary).
	Mode string `json:"mode"`
	// Engine names the CQ engine driving node evaluation.
	Engine string `json:"engine"`
	// Parallelism is the Solve worker-pool bound the run used.
	Parallelism int `json:"parallelism,omitempty"`
	// Classification is the structural classification, when requested.
	Classification string `json:"classification,omitempty"`
	// AnswerCount is the number of answers (enumeration modes only).
	AnswerCount *int `json:"answer_count,omitempty"`
	// Answers is the canonically sorted answer set (enumeration modes only).
	Answers []cq.Mapping `json:"answers,omitempty"`
	// Result is the decision-mode verdict.
	Result *bool `json:"result,omitempty"`
	// Degraded marks a result carrying weaker semantics than the requested
	// mode: a fallback-ladder hop, or an answer-capped enumeration.
	Degraded *bool `json:"degraded,omitempty"`
	// DegradedMode is the mode whose semantics the result actually carries.
	DegradedMode string `json:"degraded_mode,omitempty"`
	// OptimizerTractable reports whether the Corollary 2 optimizer found a
	// tractable witness, when the optimizer was requested.
	OptimizerTractable *bool `json:"optimizer_tractable,omitempty"`
	// Plans carries the per-node EXPLAIN plans, when requested.
	Plans []obs.Plan `json:"plans,omitempty"`
	// Counters is the obs counter snapshot, when requested.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Trace is the reconstructed span tree, when tracing was requested
	// (?trace=1 on /v1/query, wdpteval -trace with -json).
	Trace []obs.SpanNode `json:"trace,omitempty"`
}

// SetAnswers records an enumeration answer set and its count as given.
// The answers must already be in the canonical order of
// cq.CompareMappings, as Solve and Union.Solve return them, so every front
// end emits the same byte sequence for the same answer set.
func (r *Report) SetAnswers(answers []cq.Mapping) {
	n := len(answers)
	r.AnswerCount, r.Answers = &n, answers
}

// SetResult records a decision-mode verdict.
func (r *Report) SetResult(v bool) { r.Result = &v }

// NoteDegraded copies a degraded Solve result onto the report and reports
// whether the result was degraded (so text front ends can print a marker).
func (r *Report) NoteDegraded(res core.Result) bool {
	if !res.Degraded {
		return false
	}
	t := true
	r.Degraded = &t
	r.DegradedMode = res.DegradedMode.String()
	return true
}

// Encode writes the report as one two-space-indented JSON document followed
// by a newline — the exact bytes of wdpteval -json and of a wdptd response
// body.
func Encode(w io.Writer, r Report) error {
	buf, err := Append(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Append appends Encode's bytes for r to dst: exactly what encoding/json's
// Encoder writes for r with two-space indentation and HTML escaping, so
// the field order, omitempty rules and escapes are those of the struct
// tags above. Answers are written in slice order, a nil answer as null.
func Append(dst []byte, r Report) ([]byte, error) {
	var names []string
	return appendReport(dst, &r, len(r.Answers), func(dst []byte, i int) []byte {
		dst, names = appendMapping(dst, r.Answers[i], names)
		return dst
	})
}

// AppendSpliced is Append with answers in place of r.Answers: each one an
// answer already encoded by Encode, exactly as it sits inside a report's
// "answers" array, from its first byte to its last. A caller holding such
// bytes — the cluster coordinator merging member bodies — writes a report
// without decoding them.
func AppendSpliced(dst []byte, r Report, answers []string) ([]byte, error) {
	return appendReport(dst, &r, len(answers), func(dst []byte, i int) []byte {
		return append(dst, answers[i]...)
	})
}

// AppendRows is Append with rows in place of r.Answers and r.AnswerCount:
// each answer is written from its bound columns, in column order, with its
// values looked up in rows.Dict, so no answer becomes a mapping on its way
// out. The bytes are Append's for r with rows.Mappings() as its answers.
func AppendRows(dst []byte, r Report, rows *core.Rows) ([]byte, error) {
	n := rows.N
	r.AnswerCount = &n
	// Each column's name is encoded once, with the indentation before it
	// and the separator after it.
	heads := make([][]byte, len(rows.Vars))
	for c, v := range rows.Vars {
		heads[c] = append(AppendString([]byte("\n      "), v), ": "...)
	}
	return appendReport(dst, &r, n, func(dst []byte, i int) []byte {
		dst = append(dst, '{')
		bound := false
		for c, id := range rows.Row(i) {
			if id == db.NoID {
				continue
			}
			if bound {
				dst = append(dst, ',')
			}
			dst = AppendString(append(dst, heads[c]...), rows.Dict.Term(id))
			bound = true
		}
		if !bound {
			return append(dst, '}')
		}
		return append(dst, "\n    }"...)
	})
}

// appendReport appends the document for r with n answers, each appended by
// answer. Nested values (plans, trace) go through encoding/json with the
// indentation of their depth.
func appendReport(dst []byte, r *Report, n int, answer func([]byte, int) []byte) ([]byte, error) {
	dst = append(dst, "{\n  \"mode\": "...)
	dst = AppendString(dst, r.Mode)
	dst = append(dst, ",\n  \"engine\": "...)
	dst = AppendString(dst, r.Engine)
	if r.Parallelism != 0 {
		dst = strconv.AppendInt(append(dst, ",\n  \"parallelism\": "...), int64(r.Parallelism), 10)
	}
	if r.Classification != "" {
		dst = AppendString(append(dst, ",\n  \"classification\": "...), r.Classification)
	}
	if r.AnswerCount != nil {
		dst = strconv.AppendInt(append(dst, ",\n  \"answer_count\": "...), int64(*r.AnswerCount), 10)
	}
	if n > 0 {
		dst = append(dst, ",\n  \"answers\": ["...)
		for i := 0; i < n; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = answer(append(dst, "\n    "...), i)
		}
		dst = append(dst, "\n  ]"...)
	}
	if r.Result != nil {
		dst = strconv.AppendBool(append(dst, ",\n  \"result\": "...), *r.Result)
	}
	if r.Degraded != nil {
		dst = strconv.AppendBool(append(dst, ",\n  \"degraded\": "...), *r.Degraded)
	}
	if r.DegradedMode != "" {
		dst = AppendString(append(dst, ",\n  \"degraded_mode\": "...), r.DegradedMode)
	}
	if r.OptimizerTractable != nil {
		dst = strconv.AppendBool(append(dst, ",\n  \"optimizer_tractable\": "...), *r.OptimizerTractable)
	}
	var err error
	if len(r.Plans) > 0 {
		if dst, err = appendNested(append(dst, ",\n  \"plans\": "...), r.Plans); err != nil {
			return nil, err
		}
	}
	if len(r.Counters) > 0 {
		dst = appendCounters(append(dst, ",\n  \"counters\": "...), r.Counters)
	}
	if len(r.Trace) > 0 {
		if dst, err = appendNested(append(dst, ",\n  \"trace\": "...), r.Trace); err != nil {
			return nil, err
		}
	}
	return append(dst, "\n}\n"...), nil
}

// appendMapping appends one answer at the depth of the "answers" array:
// its variables in sorted order. names is scratch space, returned for
// reuse.
func appendMapping(dst []byte, h cq.Mapping, names []string) ([]byte, []string) {
	if h == nil {
		return append(dst, "null"...), names
	}
	if len(h) == 0 {
		return append(dst, "{}"...), names
	}
	names = names[:0]
	for v := range h {
		names = append(names, v)
	}
	slices.Sort(names)
	dst = append(dst, '{')
	for i, v := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(append(dst, "\n      "...), v)
		dst = AppendString(append(dst, ": "...), h[v])
	}
	return append(dst, "\n    }"...), names
}

// appendCounters appends the counter object with its names in sorted order.
func appendCounters(dst []byte, counters map[string]int64) []byte {
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	slices.Sort(names)
	dst = append(dst, '{')
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(append(dst, "\n    "...), name)
		dst = strconv.AppendInt(append(dst, ": "...), counters[name], 10)
	}
	return append(dst, "\n  }"...)
}

// appendNested appends a top-level field's nested value through
// encoding/json, indented for depth one.
func appendNested(dst []byte, v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		return nil, err
	}
	return append(dst, b...), nil
}

// AppendString appends s as encoding/json writes a string with HTML
// escaping: quoted, with <, > and & as \u003c, \u003e and \u0026, the
// short escapes for quote, backslash, \b, \f, \n, \r and \t, \u00XX for
// the other control bytes, \u2028 and \u2029 escaped, and each byte of
// invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if plain(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// plain reports whether the ASCII byte b stands for itself in an encoded
// string: printable (DEL included) and none of `"\<>&`.
func plain(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

const hex = "0123456789abcdef"

// ExitCode maps an evaluation error to the documented CLI exit code: 0
// success, 3 deadline exceeded, 4 tuple budget exceeded, 5 answer limit
// reached (partial answers were printed), 2 anything else.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, guard.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		return 3
	case errors.Is(err, guard.ErrTupleBudget):
		return 4
	case errors.Is(err, guard.ErrAnswerLimit):
		return 5
	}
	return 2
}

// HTTPStatus maps an evaluation error to the status code wdptd serves: 200
// success, 504 deadline (the request's wall budget or context expired), 413
// tuple budget (the query materialized more than the request allowed), 206
// answer limit (the body carries the truncated partial answer set), 500
// anything else. The mapping is the HTTP projection of ExitCode; the two
// classify errors identically.
func HTTPStatus(err error) int {
	switch ExitCode(err) {
	case 0:
		return http.StatusOK
	case 3:
		return http.StatusGatewayTimeout
	case 4:
		return http.StatusRequestEntityTooLarge
	case 5:
		return http.StatusPartialContent
	}
	return http.StatusInternalServerError
}

// ErrorCode names an evaluation error's taxonomy bucket for typed error
// payloads: "deadline", "tuple_budget", "answer_limit", "injected_fault",
// "panic", "canceled", or "error".
func ErrorCode(err error) string {
	switch {
	case errors.Is(err, guard.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, guard.ErrTupleBudget):
		return "tuple_budget"
	case errors.Is(err, guard.ErrAnswerLimit):
		return "answer_limit"
	case errors.Is(err, guard.ErrInjected):
		return "injected_fault"
	case errors.Is(err, guard.ErrPanic):
		return "panic"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return "error"
}
