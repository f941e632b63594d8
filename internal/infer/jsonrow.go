package infer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// ErrTooManyRows is wrapped by DecodeRequest when the row cap is exceeded;
// handlers map it to 413.
var ErrTooManyRows = errors.New("too many rows")

// DecodeRequest parses a predict request body straight into the row block —
// the zero-allocation ingest path. The expected shape is
//
//	{"rows":[{"feature":value,...},...], "max_depth":N}
//
// where each cell value may be a JSON string (parsed exactly like
// AppendRow: trimmed, ""/"NA"/"?" missing, dictionaries for categorical
// levels), a JSON number (numeric columns take it directly; categorical
// columns look the literal text up as a level), or null (missing). Unknown
// envelope and feature keys are skipped like encoding/json would. Rows may
// omit features — omitted cells are missing. maxRows <= 0 means unlimited.
//
// The body is accepted or rejected as decoding it with encoding/json and
// then calling AppendRow per row would: the body must be one valid JSON
// value, a repeated key's last value wins (a repeated "rows" replaces the
// earlier array, and the row cap applies to the kept one), and a bad value
// that a later duplicate replaces is no error.
//
// Unlike the encoding/json route this never materialises per-row maps.
// Each block remembers which feature followed which in the previous rows,
// so a key in the usual order is matched by comparing its bytes with the
// predicted name instead of hashing it, and plain decimal cells are parsed
// in place by parseDecimal. Steady-state decoding allocates nothing.
func (m *Model) DecodeRequest(b *RowBlock, body []byte, maxRows int) (maxDepth int, err error) {
	return m.DecodeRequestCtx(context.Background(), b, body, maxRows)
}

// decodeCheckEvery is how many rows DecodeRequestCtx parses between context
// checks — coarse enough that the check never shows up in the row loop,
// fine enough that a dead request abandons a large batch mid-parse.
const decodeCheckEvery = 256

// maxNesting is encoding/json's limit on nested arrays and objects.
const maxNesting = 10000

// DecodeRequestCtx is DecodeRequest with cooperative cancellation: every
// decodeCheckEvery rows the scanner checks ctx and aborts the parse with
// the context's error, so an expired or disconnected request stops chewing
// through a large body.
func (m *Model) DecodeRequestCtx(ctx context.Context, b *RowBlock, body []byte, maxRows int) (maxDepth int, err error) {
	s := scanner{data: body, scratch: b.scratch, ctx: ctx}
	defer func() { b.scratch = s.scratch }()
	s.ws()
	if err := s.expect('{'); err != nil {
		return 0, err
	}
	n0 := b.n
	sawRows := false
	// Errors in a value a later duplicate key may replace wait for the end.
	var rowsErr, depthErr error
	s.ws()
	if s.peek() == '}' {
		s.pos++
	} else {
		for done := false; !done; {
			s.ws()
			key, err := s.string()
			if err != nil {
				return 0, err
			}
			s.ws()
			if err := s.expect(':'); err != nil {
				return 0, err
			}
			s.ws()
			switch string(key) {
			case "rows":
				sawRows = true
				b.n = n0
				start := s.pos
				if rowsErr = m.decodeRows(&s, b, maxRows); rowsErr != nil {
					if fatal(rowsErr) {
						return 0, rowsErr
					}
					b.n = n0
					s.pos = start
					if err := s.skipValue(1); err != nil {
						return 0, err
					}
				}
			case "max_depth":
				maxDepth, depthErr = 0, nil
				if c := s.peek(); c != '-' && (c < '0' || c > '9') {
					depthErr = errors.New("infer: max_depth is not an integer")
					if err := s.skipValue(1); err != nil {
						return 0, err
					}
					break
				}
				n, err := s.number()
				if err != nil {
					return 0, err
				}
				if maxDepth, err = strconv.Atoi(string(n)); err != nil {
					maxDepth, depthErr = 0, fmt.Errorf("infer: max_depth %q is not an integer", n)
				}
			default:
				if err := s.skipValue(1); err != nil {
					return 0, err
				}
			}
			s.ws()
			switch s.peek() {
			case ',':
				s.pos++
			case '}':
				s.pos++
				done = true
			default:
				return 0, s.errAt("expected ',' or '}'")
			}
		}
	}
	s.ws()
	switch {
	case s.pos < len(s.data):
		return 0, s.errAt("data after the request object")
	case !sawRows:
		return 0, fmt.Errorf("infer: request has no \"rows\"")
	case rowsErr != nil:
		return 0, rowsErr
	case depthErr != nil:
		return 0, depthErr
	}
	return maxDepth, nil
}

// fatal reports whether a decode error ends the parse at once: malformed
// JSON or a dead context. Any other error belongs to one value.
func fatal(err error) bool {
	var se *syntaxError
	return errors.As(err, &se) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (m *Model) decodeRows(s *scanner, b *RowBlock, maxRows int) error {
	if s.peek() != '[' {
		return errors.New("infer: \"rows\" is not an array")
	}
	s.pos++
	s.ws()
	if s.peek() == ']' {
		s.pos++
		return nil
	}
	for {
		if maxRows > 0 && b.n >= maxRows {
			return fmt.Errorf("infer: %w (limit %d)", ErrTooManyRows, maxRows)
		}
		if b.n%decodeCheckEvery == 0 && s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				return fmt.Errorf("infer: decode aborted at row %d: %w", b.n, err)
			}
		}
		if err := m.decodeRow(s, b); err != nil {
			return err
		}
		s.ws()
		switch s.peek() {
		case ',':
			s.pos++
			s.ws()
		case ']':
			s.pos++
			return nil
		default:
			return s.errAt("expected ',' or ']'")
		}
	}
}

// decodeRow parses one row object. All cells default to missing; keys seen
// in the object overwrite their slot (last duplicate wins, like
// encoding/json).
func (m *Model) decodeRow(s *scanner, b *RowBlock) error {
	if s.peek() != '{' {
		return fmt.Errorf("infer: row %d is not an object", b.n)
	}
	start := s.pos
	s.pos++
	row := b.n
	numOff, catOff := b.grow()
	next := b.keyOrder(len(m.schema.Names))
	prev := 0 // next[prev] predicts this key: 0 row start, ci+1 after column ci
	s.ws()
	if s.peek() == '}' {
		s.pos++
		return nil
	}
	for {
		s.ws()
		ci := int(next[prev])
		if ci < 0 || !s.consume(m.quoted[ci]) {
			key, err := s.string()
			if err != nil {
				return err
			}
			if ci < 0 || string(key) != m.schema.Names[ci] {
				ci = -1
				if c, known := m.byName[string(key)]; known {
					ci = c
				}
				next[prev] = int32(ci)
			}
		}
		prev = ci + 1
		if ci < 0 {
			prev = len(next) - 1 // after an unknown key
		}
		s.ws()
		if err := s.expect(':'); err != nil {
			return err
		}
		s.ws()
		if ci < 0 { // unknown feature: skip its value, like the legacy parser
			if err := s.skipValue(3); err != nil {
				return err
			}
		} else if err := m.decodeCell(s, b, row, ci, numOff, catOff); err != nil {
			if fatal(err) {
				return err
			}
			return m.decodeRowLastWins(s, b, start, row, numOff, catOff)
		}
		s.ws()
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil
		default:
			return s.errAt("expected ',' or '}'")
		}
	}
}

// decodeRowLastWins decodes the row object at start again after a cell
// failed, this time taking only each feature's last value, so a bad cell a
// later duplicate replaces is no error — as with encoding/json.
func (m *Model) decodeRowLastWins(s *scanner, b *RowBlock, start, row, numOff, catOff int) error {
	last := make([]int, len(m.schema.Names)) // offset of the last value; 0 if none
	s.pos = start + 1
	s.ws()
	if s.peek() == '}' {
		s.pos++
		return nil
	}
	for done := false; !done; {
		s.ws()
		key, err := s.string()
		if err != nil {
			return err
		}
		s.ws()
		if err := s.expect(':'); err != nil {
			return err
		}
		s.ws()
		if ci, known := m.byName[string(key)]; known {
			last[ci] = s.pos
		}
		if err := s.skipValue(3); err != nil {
			return err
		}
		s.ws()
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			done = true
		default:
			return s.errAt("expected ',' or '}'")
		}
	}
	end := s.pos
	for ci, at := range last {
		if at == 0 {
			continue
		}
		s.pos = at
		if err := m.decodeCell(s, b, row, ci, numOff, catOff); err != nil {
			return err
		}
	}
	s.pos = end
	return nil
}

// decodeCell parses one value into column ci of the row. Apart from
// malformed JSON, an error leaves the value consumed.
func (m *Model) decodeCell(s *scanner, b *RowBlock, row, ci, numOff, catOff int) error {
	name := m.schema.Names[ci]
	slot := int(m.colSlot[ci])
	switch c := s.peek(); {
	case c == '"':
		// A quoted plain decimal parses straight from the body.
		if !m.colCat[ci] {
			if v, n, ok := scanDecimal(s.data[s.pos+1:]); ok && s.pos+1+n < len(s.data) && s.data[s.pos+1+n] == '"' {
				b.nums[numOff+slot] = v
				s.pos += n + 2
				return nil
			}
		}
		raw, err := s.string()
		if err != nil {
			return err
		}
		return m.assignRaw(b, row, ci, raw, numOff, catOff)
	case c == 'n':
		if err := s.literal("null"); err != nil {
			return err
		}
		m.setMissing(b, ci, numOff, catOff)
		return nil
	case c == 't' || c == 'f':
		lit := "true"
		if c == 'f' {
			lit = "false"
		}
		if err := s.literal(lit); err != nil {
			return err
		}
		if m.colCat[ci] {
			return m.assignRaw(b, row, ci, []byte(lit), numOff, catOff)
		}
		return fmt.Errorf("infer: row %d column %q: boolean is not numeric", row, name)
	case c == '{' || c == '[':
		if err := s.skipValue(3); err != nil {
			return err
		}
		return fmt.Errorf("infer: row %d column %q: cell must be a scalar", row, name)
	default:
		raw, err := s.number()
		if err != nil {
			return err
		}
		if m.colCat[ci] {
			// A bare number for a categorical column names the level by its
			// literal text, same as the quoted form.
			code, found := m.dicts[ci][string(raw)]
			if !found {
				code = unseenCode
			}
			b.cats[catOff+slot] = code
			return nil
		}
		v, ok := parseDecimal(raw)
		if !ok {
			var perr error
			if v, perr = strconv.ParseFloat(string(raw), 64); perr != nil {
				return fmt.Errorf("infer: row %d column %q: %q is not numeric", row, name, raw)
			}
		}
		b.nums[numOff+slot] = v
		return nil
	}
}

// assignRaw applies AppendRow's string-cell conventions to one slot.
func (m *Model) assignRaw(b *RowBlock, row, ci int, raw []byte, numOff, catOff int) error {
	slot := int(m.colSlot[ci])
	trimmed := trimBytes(raw)
	if len(trimmed) == 0 || string(trimmed) == "NA" || string(trimmed) == "?" {
		m.setMissing(b, ci, numOff, catOff)
		return nil
	}
	if m.colCat[ci] {
		code, found := m.dicts[ci][string(trimmed)]
		if !found {
			code = unseenCode
		}
		b.cats[catOff+slot] = code
		return nil
	}
	v, ok := parseDecimal(trimmed)
	if !ok {
		var err error
		if v, err = strconv.ParseFloat(string(trimmed), 64); err != nil {
			return fmt.Errorf("infer: row %d column %q: %q is not numeric", row, m.schema.Names[ci], trimmed)
		}
	}
	b.nums[numOff+slot] = v
	return nil
}

// setMissing marks column ci of the row missing, overriding an earlier
// duplicate key's value.
func (m *Model) setMissing(b *RowBlock, ci, numOff, catOff int) {
	if slot := int(m.colSlot[ci]); m.colCat[ci] {
		b.cats[catOff+slot] = missingCode
	} else {
		b.nums[numOff+slot] = math.NaN()
	}
}

// trimBytes is strings.TrimSpace over bytes, ASCII fast path first.
func trimBytes(b []byte) []byte {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	if len(b) > 0 && (b[0] >= utf8.RuneSelf || b[len(b)-1] >= utf8.RuneSelf) {
		return []byte(strings.TrimSpace(string(b))) // rare: unicode spaces
	}
	return b
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v'
}

// plainByte marks the bytes a JSON string holds as themselves: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// quotedName returns name as its JSON string token when the token is the
// name's bytes between quotes, and nil when it needs escapes.
func quotedName(name string) []byte {
	if !utf8.ValidString(name) {
		return nil
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; c < utf8.RuneSelf && !plainByte[c] {
			return nil
		}
	}
	return []byte(`"` + name + `"`)
}

// syntaxError is malformed JSON, reported with its byte offset.
type syntaxError struct {
	msg string
	off int
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("infer: invalid JSON at byte %d: %s", e.off, e.msg)
}

// scanner is a minimal JSON scanner over a byte slice. It only implements
// what the predict request shape needs; anything else is a parse error with
// a byte offset.
type scanner struct {
	data    []byte
	pos     int
	scratch []byte // unescape buffer, owned by the row block between calls
	ctx     context.Context
}

func (s *scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func (s *scanner) peek() byte {
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

func (s *scanner) expect(c byte) error {
	if s.pos >= len(s.data) || s.data[s.pos] != c {
		return s.errAt(fmt.Sprintf("expected %q", c))
	}
	s.pos++
	return nil
}

// consume advances past tok if the input continues with it; an empty tok
// never matches.
func (s *scanner) consume(tok []byte) bool {
	if len(tok) == 0 || !bytes.HasPrefix(s.data[s.pos:], tok) {
		return false
	}
	s.pos += len(tok)
	return true
}

func (s *scanner) errAt(msg string) error {
	return &syntaxError{msg: msg, off: s.pos}
}

func (s *scanner) literal(lit string) error {
	if s.pos+len(lit) > len(s.data) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return s.errAt("expected " + lit)
	}
	s.pos += len(lit)
	return nil
}

// string scans a JSON string and returns its contents. Strings without
// escapes or invalid UTF-8 alias the input; others are decoded into the
// scratch buffer the way encoding/json decodes them. The returned slice is
// valid until the next string call.
func (s *scanner) string() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.pos
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case plainByte[c]:
			s.pos++
		case c == '"':
			out := s.data[start:s.pos]
			s.pos++
			return out, nil
		case c == '\\':
			return s.stringSlow(start)
		case c < 0x20:
			return nil, s.errAt("control character in string")
		default:
			r, size := utf8.DecodeRune(s.data[s.pos:])
			if r == utf8.RuneError && size == 1 {
				return s.stringSlow(start)
			}
			s.pos += size
		}
	}
	return nil, s.errAt("unterminated string")
}

// stringSlow finishes a string containing escapes or invalid UTF-8,
// decoding into scratch: escapes are resolved, and each invalid byte and
// each unpaired surrogate becomes U+FFFD.
func (s *scanner) stringSlow(start int) ([]byte, error) {
	s.scratch = append(s.scratch[:0], s.data[start:s.pos]...)
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			s.pos++
			return s.scratch, nil
		case c < 0x20:
			return nil, s.errAt("control character in string")
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(s.data[s.pos:])
			s.scratch = utf8.AppendRune(s.scratch, r)
			s.pos += size
			continue
		case c != '\\':
			s.scratch = append(s.scratch, c)
			s.pos++
			continue
		}
		s.pos++
		if s.pos >= len(s.data) {
			return nil, s.errAt("unterminated escape")
		}
		e := s.data[s.pos]
		s.pos++
		switch e {
		case '"', '\\', '/':
			s.scratch = append(s.scratch, e)
		case 'b':
			s.scratch = append(s.scratch, '\b')
		case 'f':
			s.scratch = append(s.scratch, '\f')
		case 'n':
			s.scratch = append(s.scratch, '\n')
		case 'r':
			s.scratch = append(s.scratch, '\r')
		case 't':
			s.scratch = append(s.scratch, '\t')
		case 'u':
			r, err := s.hex4()
			if err != nil {
				return nil, err
			}
			if utf16.IsSurrogate(r) {
				// A valid pair is consumed whole; otherwise the first half
				// becomes U+FFFD and what follows is decoded on its own.
				r2, p := utf8.RuneError, s.pos
				if p+1 < len(s.data) && s.data[p] == '\\' && s.data[p+1] == 'u' {
					s.pos = p + 2
					if h, err := s.hex4(); err == nil {
						r2 = h
					}
					s.pos = p
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					s.pos = p + 6
				}
			}
			s.scratch = utf8.AppendRune(s.scratch, r)
		default:
			return nil, s.errAt("bad escape")
		}
	}
	return nil, s.errAt("unterminated string")
}

// hex4 reads the four hex digits of a \u escape.
func (s *scanner) hex4() (rune, error) {
	if s.pos+4 > len(s.data) {
		return 0, s.errAt("truncated \\u escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := s.data[s.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, s.errAt("bad \\u escape")
		}
	}
	s.pos += 4
	return r, nil
}

// number scans a JSON number and returns its literal bytes.
func (s *scanner) number() ([]byte, error) {
	start := s.pos
	if s.peek() == '-' {
		s.pos++
	}
	switch c := s.peek(); {
	case c == '0':
		s.pos++
	case '1' <= c && c <= '9':
		s.digits()
	default:
		return nil, s.errAt("expected a number")
	}
	if s.peek() == '.' {
		s.pos++
		if s.digits() == 0 {
			return nil, s.errAt("expected a digit after the decimal point")
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.pos++
		if c := s.peek(); c == '+' || c == '-' {
			s.pos++
		}
		if s.digits() == 0 {
			return nil, s.errAt("expected an exponent")
		}
	}
	return s.data[start:s.pos], nil
}

// digits skips a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.pos
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos - start
}

// skipValue consumes any JSON value inside depth enclosing arrays and
// objects.
func (s *scanner) skipValue(depth int) error {
	s.ws()
	switch c := s.peek(); c {
	case '"':
		_, err := s.string()
		return err
	case '{':
		if depth >= maxNesting {
			return s.errAt("exceeded max depth")
		}
		s.pos++
		s.ws()
		if s.peek() == '}' {
			s.pos++
			return nil
		}
		for {
			s.ws()
			if _, err := s.string(); err != nil {
				return err
			}
			s.ws()
			if err := s.expect(':'); err != nil {
				return err
			}
			if err := s.skipValue(depth + 1); err != nil {
				return err
			}
			s.ws()
			switch s.peek() {
			case ',':
				s.pos++
			case '}':
				s.pos++
				return nil
			default:
				return s.errAt("expected ',' or '}'")
			}
		}
	case '[':
		if depth >= maxNesting {
			return s.errAt("exceeded max depth")
		}
		s.pos++
		s.ws()
		if s.peek() == ']' {
			s.pos++
			return nil
		}
		for {
			if err := s.skipValue(depth + 1); err != nil {
				return err
			}
			s.ws()
			switch s.peek() {
			case ',':
				s.pos++
			case ']':
				s.pos++
				return nil
			default:
				return s.errAt("expected ',' or ']'")
			}
		}
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	default:
		_, err := s.number()
		return err
	}
}
