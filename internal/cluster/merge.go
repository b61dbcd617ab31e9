package cluster

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"wdpt/internal/cq"
	"wdpt/internal/report"
)

// The scatter merge handles each answer's text once: the members encode
// it, and the coordinator splices those bytes into the union's body. A leg
// body is read strictly in the layout report.Encode gives a single-tree
// enumeration; for each answer the reader keeps its encoded bytes and its
// sort key, laid out as cq.RowKeys lays it. Any other body — another
// header, extra fields such as degraded, a null answer, names or answers
// out of strictly increasing order, a miscounted answer_count, a string
// not in the encoder's own escaping, trailing bytes — makes the whole
// request replay locally. A
// member of another version therefore costs a replay, never a wrong body.
// Values that are not valid UTF-8 replay too: the member writes each
// invalid byte as \ufffd, which loses the bytes the single node orders
// and de-duplicates by.

// mergeLegs merges the 200 bodies of a scatter's legs into the union's body
// under hdr's mode, engine and parallelism: a k-way merge of the legs'
// answers by key (cq.MergeKeys, with the ⊏ filter in maximal mode) whose
// encoded answers are spliced into the report framing. ok is false when a
// body is not a clean leg for hdr.Engine.
func mergeLegs(hdr report.Report, bodies [][]byte) (merged []byte, ok bool) {
	keys := make([][][]string, len(bodies))
	spans := make([][]string, len(bodies))
	size := 0
	for i, body := range bodies {
		if keys[i], spans[i], ok = readLeg(string(body), hdr.Engine); !ok {
			return nil, false
		}
		size += len(body)
	}
	refs := cq.MergeKeys(keys, hdr.Mode == "maximal")
	answers := make([]string, len(refs))
	for i, r := range refs {
		answers[i] = spans[r.List][r.Index]
	}
	n := len(answers)
	hdr.AnswerCount = &n
	merged, err := report.AppendSpliced(make([]byte, 0, size), hdr, answers)
	return merged, err == nil
}

// legReader reads one leg body front to back.
type legReader struct {
	s   string
	pos int
	buf []byte // scratch for re-encoding escaped strings
}

// readLeg reads a single-tree enumerate body for engine and returns each
// answer's key and encoded bytes, in body order.
func readLeg(body, engine string) (keys [][]string, spans []string, ok bool) {
	r := &legReader{s: body}
	if !r.lit("{\n  \"mode\": \"enumerate\",\n  \"engine\": ") {
		return nil, nil, false
	}
	if e, ok := r.str(); !ok || e != engine {
		return nil, nil, false
	}
	if r.lit(",\n  \"parallelism\": ") {
		if _, ok := r.uint(); !ok {
			return nil, nil, false
		}
	}
	if !r.lit(",\n  \"answer_count\": ") {
		return nil, nil, false
	}
	count, ok := r.uint()
	if !ok || count > len(body) {
		return nil, nil, false
	}
	if count > 0 {
		if !r.lit(",\n  \"answers\": [") {
			return nil, nil, false
		}
		keys, spans = make([][]string, 0, count), make([]string, 0, count)
		var flat []string
		for {
			if !r.lit("\n    ") {
				return nil, nil, false
			}
			start, from := r.pos, len(flat)
			if flat, ok = r.answer(flat); !ok {
				return nil, nil, false
			}
			key := flat[from:len(flat):len(flat)]
			if len(keys) > 0 && slices.Compare(keys[len(keys)-1], key) >= 0 {
				return nil, nil, false
			}
			keys, spans = append(keys, key), append(spans, body[start:r.pos])
			if !r.lit(",") {
				break
			}
		}
		if !r.lit("\n  ]") {
			return nil, nil, false
		}
	}
	if !r.lit("\n}\n") || r.pos != len(body) || len(keys) != count {
		return nil, nil, false
	}
	return keys, spans, true
}

// answer reads one answer object and appends its key — names strictly
// increasing, each followed by its value — to flat.
func (r *legReader) answer(flat []string) ([]string, bool) {
	if r.lit("{}") {
		return flat, true
	}
	if !r.lit("{") {
		return nil, false
	}
	from := len(flat)
	for {
		if !r.lit("\n      ") {
			return nil, false
		}
		name, ok := r.str()
		if !ok || len(flat) > from && flat[len(flat)-2] >= name || !r.lit(": ") {
			return nil, false
		}
		value, ok := r.str()
		if !ok {
			return nil, false
		}
		flat = append(flat, name, value)
		if !r.lit(",") {
			break
		}
	}
	if !r.lit("\n    }") {
		return nil, false
	}
	return flat, true
}

// lit consumes the literal l if the body continues with it.
func (r *legReader) lit(l string) bool {
	if !strings.HasPrefix(r.s[r.pos:], l) {
		return false
	}
	r.pos += len(l)
	return true
}

// uint reads a non-negative integer as strconv writes it.
func (r *legReader) uint() (int, bool) {
	end := r.pos
	for end < len(r.s) && end-r.pos < 18 && r.s[end] >= '0' && r.s[end] <= '9' {
		end++
	}
	digits := r.s[r.pos:end]
	if digits == "" || len(digits) > 1 && digits[0] == '0' {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	r.pos = end
	return n, err == nil
}

// str reads a string as report.AppendString writes it and returns its
// value. A string of plain ASCII is its own value; any other is decoded
// and must re-encode to exactly the bytes read.
func (r *legReader) str() (string, bool) {
	if r.pos >= len(r.s) || r.s[r.pos] != '"' {
		return "", false
	}
	start := r.pos + 1
	plain, escaped := true, false
	i := start
	for ; i < len(r.s) && r.s[i] != '"'; i++ {
		switch c := r.s[i]; {
		case c == '\\':
			plain, escaped = false, true
			i++ // the escaped byte, which may be a quote
		case c < 0x20 || c >= utf8.RuneSelf || c == '<' || c == '>' || c == '&':
			plain = false
		}
	}
	if i >= len(r.s) {
		return "", false
	}
	raw := r.s[start:i]
	r.pos = i + 1
	if plain {
		return raw, true
	}
	value := raw
	if escaped {
		var ok bool
		if value, ok = unescape(raw); !ok {
			return "", false
		}
	}
	r.buf = report.AppendString(r.buf[:0], value)
	if string(r.buf[1:len(r.buf)-1]) != raw {
		return "", false
	}
	return value, true
}

// unescape decodes the JSON escapes of a string's contents. It accepts
// every escape JSON has; str rejects those the encoder never writes.
func unescape(raw string) (string, bool) {
	b := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			b = append(b, c)
			continue
		}
		if i++; i >= len(raw) {
			return "", false
		}
		switch raw[i] {
		case '"', '\\', '/':
			b = append(b, raw[i])
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			if i+4 >= len(raw) {
				return "", false
			}
			code, err := strconv.ParseUint(raw[i+1:i+5], 16, 16)
			if err != nil {
				return "", false
			}
			b = utf8.AppendRune(b, rune(code))
			i += 4
		default:
			return "", false
		}
	}
	return string(b), true
}
