package seq

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the /v1 read codec. One read of a JSON align body is
//
//	{"name": "...", "seq": "ACGT...", "qual": "IIII..."}
//
// inside a top-level array field ("reads", or "reads1"/"reads2" paired).
// DecodeJSONReads is the server half, AppendJSONRead the client half.
// Neither uses reflection: the decoder is a scanner over a small
// refillable window that compares keys in place and copies every read's
// bases and qualities into one arena per call, and the encoder appends to
// a caller-sized buffer. Both keep encoding/json's observable behaviour
// byte for byte — what it accepts and rejects, what it decodes, what it
// writes — so the wire format and every served byte are unchanged.

const (
	jsonWindow   = 4 << 10 // input window; grown only to hold one longer token
	arenaChunk   = 8 << 10 // arena chunk (larger only for one longer string)
	maxJSONDepth = 10000   // encoding/json's nesting limit for one decoded value
	noProgress   = 100     // empty reads tolerated in a row, as bufio does
)

// JSONReadVisitor receives one read of a JSON read-array field as soon as
// it is decoded. Returning a non-nil error aborts the whole decode
// immediately — the remainder of the body is never read — and
// DecodeJSONReads returns that error verbatim.
type JSONReadVisitor func(rd Read) error

// DecodeJSONReads incrementally decodes a JSON object whose recognized
// top-level fields each hold an array of read objects of the form
//
//	{"name": "...", "seq": "ACGT...", "qual": "IIII..."}
//
// calling the field's visitor for every read as it is decoded. The arrays
// are never materialized here, which is what lets a server enforce
// per-request read caps and per-read validation mid-body instead of after
// buffering the whole request.
//
// The accepted language is encoding/json's: the top level must be an
// object, and bytes after its closing brace are not read; fields without a
// visitor are skipped after a full syntax check; a recognized field holding
// null has no reads, and any other non-array is an error. Read keys match
// case-insensitively (Unicode simple folding) and the last duplicate wins;
// unknown read keys are skipped. A null string field is a no-op and a
// non-string value an error; a null read is a zero read. Strings decode
// \u escapes and surrogate pairs, turn invalid UTF-8 and lone surrogates
// into U+FFFD, and reject raw control bytes.
//
// Every read's Seq is non-nil (empty when absent) and its Qual nil when
// absent or empty. Seq and Qual are capped sub-slices of one arena shared
// by the call's reads, so the visitor may keep them; Name is the only
// per-read allocation.
func DecodeJSONReads(r io.Reader, fields map[string]JSONReadVisitor) error {
	d := jsonDecoder{r: r, buf: make([]byte, 0, jsonWindow)}
	return d.object(fields)
}

// jsonDecoder is the state of one DecodeJSONReads call.
type jsonDecoder struct {
	r     io.Reader
	buf   []byte // buf[pos:] is read from r but not yet consumed
	pos   int
	rerr  error  // r's error, surfaced once buf is consumed
	arena []byte // the bases and qualities of the reads decoded so far
	key   []byte // scratch: a key that needed unescaping
	name  []byte // scratch: the current read's name
}

// object decodes the top-level object.
func (d *jsonDecoder) object(fields map[string]JSONReadVisitor) error {
	c, err := d.peek()
	if err != nil {
		return fmt.Errorf("json: %w", err)
	}
	if c != '{' {
		return errors.New("json: request body is not an object")
	}
	d.pos++
	if c, err = d.peek(); err == nil && c == '}' {
		d.pos++
		return nil
	}
	for err == nil {
		var key []byte
		if key, err = d.objectKey(c); err != nil {
			break
		}
		visit, ok := fields[string(key)]
		field := string(key) // key is a window slice: copy before reading on
		if err = d.colon(); err != nil {
			break
		}
		if ok {
			if err = d.readArray(field, visit); err != nil {
				return err
			}
		} else if err = d.skip(0); err != nil {
			return fmt.Errorf("json: field %q: %w", field, err)
		}
		if c, err = d.peek(); err != nil {
			break
		}
		d.pos++
		switch c {
		case '}':
			return nil
		case ',':
			c, err = d.peek()
		default:
			err = badChar(c, "after object key:value pair")
		}
	}
	return fmt.Errorf("json: %w", err)
}

// readArray streams one recognized field's value, calling visit per read.
func (d *jsonDecoder) readArray(field string, visit JSONReadVisitor) error {
	wrap := func(err error) error { return fmt.Errorf("json: field %q: %w", field, err) }
	c, err := d.peek()
	if err != nil {
		return wrap(err)
	}
	if c == 'n' {
		if err := d.literal("null"); err != nil {
			return wrap(err)
		}
		return nil // null array: no reads
	}
	if c != '[' {
		return fmt.Errorf("json: field %q is not an array", field)
	}
	d.pos++
	if c, err = d.peek(); err == nil && c == ']' {
		d.pos++
		return nil
	}
	for err == nil {
		var rd Read
		if rd, err = d.read(); err != nil {
			break
		}
		if err := visit(rd); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			break
		}
		d.pos++
		switch c {
		case ']':
			return nil
		case ',':
		default:
			err = badChar(c, "after array element")
		}
	}
	return wrap(err)
}

// The read fields, as read matches a key.
const (
	fieldOther = iota
	fieldName
	fieldSeq
	fieldQual
)

var fieldNames = [...]string{fieldName: "name", fieldSeq: "seq", fieldQual: "qual"}

// read decodes one element of a read array.
func (d *jsonDecoder) read() (Read, error) {
	var rd Read
	c, err := d.peek()
	switch {
	case err != nil:
		return rd, err
	case c == 'n':
		rd.Seq = []byte{}
		return rd, d.literal("null")
	case c != '{':
		return rd, errors.New("a read must be an object or null")
	}
	d.pos++
	hasName := false
	if c, err = d.peek(); err == nil && c == '}' {
		d.pos++
	} else if err == nil {
		hasName, err = d.readFields(&rd, c)
	}
	if err != nil {
		return Read{}, err
	}
	if hasName {
		rd.Name = string(d.name)
	}
	if rd.Seq == nil {
		rd.Seq = []byte{}
	}
	return rd, nil
}

// readFields decodes the key:value pairs of a read object, the first key's
// opening byte c peeked, through the closing brace. The name goes to
// d.name; hasName reports there was one.
func (d *jsonDecoder) readFields(rd *Read, c byte) (hasName bool, err error) {
	for {
		key, err := d.objectKey(c)
		if err != nil {
			return false, err
		}
		f := readField(key)
		if err := d.colon(); err != nil {
			return false, err
		}
		if c, err = d.peek(); err != nil {
			return false, err
		}
		switch {
		case f == fieldOther:
			err = d.skip(1)
		case c == 'n':
			err = d.literal("null") // null leaves the field as it was
		case c != '"':
			err = fmt.Errorf("read field %q is not a string", fieldNames[f])
		default:
			raw, plain, serr := d.str()
			switch {
			case serr != nil:
				err = serr
			case f == fieldName:
				d.name, hasName = appendUnquoted(d.name[:0], raw, plain), true
			case f == fieldSeq:
				rd.Seq = d.carve(raw, plain)
			default:
				rd.Qual = d.carve(raw, plain)
			}
		}
		if err != nil {
			return false, err
		}
		if c, err = d.peek(); err != nil {
			return false, err
		}
		d.pos++
		switch c {
		case '}':
			return hasName, nil
		case ',':
			if c, err = d.peek(); err != nil {
				return false, err
			}
		default:
			return false, badChar(c, "after object key:value pair")
		}
	}
}

// readField names the read field key selects: encoding/json matches a
// struct field by exact name, else under Unicode simple folding.
func readField(key []byte) int {
	switch {
	case foldEq(key, "name"):
		return fieldName
	case foldEq(key, "seq"):
		return fieldSeq
	case foldEq(key, "qual"):
		return fieldQual
	}
	return fieldOther
}

// foldEq reports whether key equals the lower-case ASCII word under
// encoding/json's folding: rune by rune, each rune's smallest fold-orbit
// member must be the word letter's (so "SEQ" and "ſeq" both match "seq").
func foldEq(key []byte, word string) bool {
	i := 0
	for j := 0; j < len(word); j++ {
		if i >= len(key) {
			return false
		}
		if k := key[i]; k < utf8.RuneSelf {
			if k|0x20 != word[j] {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		if foldRune(r) != foldRune(rune(word[j])) {
			return false
		}
		i += n
	}
	return i == len(key)
}

// foldRune returns the smallest rune of r's simple-fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// carve copies a string field's decoded bytes into the arena and returns
// them as a capped slice, nil when empty.
func (d *jsonDecoder) carve(raw []byte, plain bool) []byte {
	if len(raw) == 0 {
		return nil
	}
	need := len(raw)
	if !plain {
		need *= 3 // an invalid byte decodes to U+FFFD's three
	}
	if cap(d.arena)-len(d.arena) < need {
		d.arena = make([]byte, 0, max(need, arenaChunk))
	}
	start := len(d.arena)
	d.arena = appendUnquoted(d.arena, raw, plain)
	return d.arena[start:len(d.arena):len(d.arena)]
}

// objectKey consumes an object key whose first byte c has been peeked and
// returns it unescaped, in the window or in d.key: valid until the next
// read.
func (d *jsonDecoder) objectKey(c byte) ([]byte, error) {
	if c != '"' {
		return nil, badChar(c, "looking for beginning of object key string")
	}
	raw, plain, err := d.str()
	if err != nil || plain {
		return raw, err
	}
	d.key = appendUnquoted(d.key[:0], raw, false)
	return d.key, nil
}

// colon consumes the ':' after an object key.
func (d *jsonDecoder) colon() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c != ':' {
		return badChar(c, "after object key")
	}
	d.pos++
	return nil
}

// skip consumes one JSON value of any kind after checking its syntax.
// depth is the number of containers already open around it in the value
// encoding/json would decode in one piece.
func (d *jsonDecoder) skip(depth int) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '"':
		_, _, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	case '{', '[':
	default:
		if c == '-' || '0' <= c && c <= '9' {
			return d.number()
		}
		return badChar(c, "looking for beginning of value")
	}
	if depth++; depth > maxJSONDepth {
		return errors.New("exceeded max depth")
	}
	d.pos++
	end := c + 2 // '[' → ']', '{' → '}'
	if c, err = d.peek(); err == nil && c == end {
		d.pos++
		return nil
	}
	for err == nil {
		if end == '}' {
			if _, err = d.objectKey(c); err != nil {
				break
			}
			if err = d.colon(); err != nil {
				break
			}
		}
		if err = d.skip(depth); err != nil {
			break
		}
		if c, err = d.peek(); err != nil {
			break
		}
		d.pos++
		switch c {
		case end:
			return nil
		case ',':
			c, err = d.peek()
		default:
			err = badChar(c, "after object key:value pair or array element")
		}
	}
	return err
}

// literal consumes the keyword word (true, false or null).
func (d *jsonDecoder) literal(word string) error {
	for len(d.buf)-d.pos < len(word) && d.more() {
	}
	got := d.buf[d.pos:min(d.pos+len(word), len(d.buf))]
	for i := range got {
		if got[i] != word[i] {
			return badChar(got[i], "in literal "+word)
		}
	}
	if len(got) < len(word) {
		return d.endErr()
	}
	d.pos += len(word)
	return nil
}

// number consumes a number after checking it against JSON's grammar. A
// byte that can continue a number but breaks the grammar is an error
// wherever the grammar breaks, since no value may follow a number.
func (d *jsonDecoder) number() error {
	n := 0
	for {
		for d.pos+n < len(d.buf) && isNumberByte(d.buf[d.pos+n]) {
			n++
		}
		if d.pos+n < len(d.buf) || !d.more() {
			break
		}
	}
	if !validNumber(d.buf[d.pos : d.pos+n]) {
		return fmt.Errorf("invalid number literal %q", d.buf[d.pos:d.pos+n])
	}
	d.pos += n
	return nil
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// validNumber matches -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func validNumber(s []byte) bool {
	digits := func(s []byte) ([]byte, bool) {
		i := 0
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return s[i:], i > 0
	}
	if len(s) > 0 && s[0] == '-' {
		s = s[1:]
	}
	var ok bool
	switch {
	case len(s) > 0 && s[0] == '0':
		s = s[1:]
	default:
		if s, ok = digits(s); !ok {
			return false
		}
	}
	if len(s) > 0 && s[0] == '.' {
		if s, ok = digits(s[1:]); !ok {
			return false
		}
	}
	if len(s) > 0 && (s[0] == 'e' || s[0] == 'E') {
		s = s[1:]
		if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
			s = s[1:]
		}
		if s, ok = digits(s); !ok {
			return false
		}
	}
	return len(s) == 0
}

// str consumes the string token whose opening quote is at d.pos and
// returns its contents with escapes still in place, valid until the next
// read. plain reports that the contents are their own decoding: no
// backslash and no byte over 0x7F.
func (d *jsonDecoder) str() (raw []byte, plain bool, err error) {
	from := 1 // where the closing-quote search resumes, relative to d.pos
	for {
		i := bytes.IndexByte(d.buf[d.pos+from:], '"')
		if i < 0 {
			from = len(d.buf) - d.pos
			if !d.more() {
				return nil, false, d.endErr()
			}
			continue
		}
		end := d.pos + from + i
		// An odd run of backslashes before the quote escapes it.
		j := end
		for j > d.pos+1 && d.buf[j-1] == '\\' {
			j--
		}
		if (end-j)%2 == 1 {
			from += i + 1
			continue
		}
		raw = d.buf[d.pos+1 : end]
		d.pos = end + 1
		plain, err = checkString(raw)
		return raw, plain, err
	}
}

// strPlain marks the bytes that stand for themselves in a JSON string.
var strPlain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainPrefix returns how many leading bytes of s are strPlain.
func plainPrefix(s []byte) int {
	i := 0
	for i < len(s) && strPlain[s[i]] {
		i++
	}
	return i
}

// checkString checks a string's contents (between the quotes) against
// JSON's grammar: no raw control bytes, only the defined escapes.
func checkString(s []byte) (plain bool, err error) {
	plain = true
	for i := plainPrefix(s); i < len(s); i += plainPrefix(s[i:]) {
		plain = false
		switch c := s[i]; {
		case c < ' ':
			return false, badChar(c, "in string literal")
		case c >= utf8.RuneSelf:
			i++
			continue
		}
		// A backslash (a quote cannot occur unescaped in the contents).
		if i+1 == len(s) {
			return false, errors.New("unterminated string escape")
		}
		switch s[i+1] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			i += 2
		case 'u':
			if getu4(s[i:]) < 0 {
				return false, errors.New(`invalid \u escape in string literal`)
			}
			i += 6
		default:
			return false, badChar(s[i+1], "in string escape code")
		}
	}
	return plain, nil
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendUnquoted appends the decoding of checked string contents s, as
// encoding/json decodes them: escapes applied, a surrogate pair joined,
// and a lone surrogate or an invalid UTF-8 byte replaced by U+FFFD.
func appendUnquoted(dst, s []byte, plain bool) []byte {
	if plain {
		return append(dst, s...)
	}
	for i := 0; ; {
		n := plainPrefix(s[i:])
		dst = append(dst, s[i:i+n]...)
		if i += n; i == len(s) {
			return dst
		}
		if c := s[i]; c != '\\' {
			r, n := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
			continue
		}
		switch e := s[i+1]; e {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := getu4(s[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, getu4(s[i:])); pair != unicode.ReplacementChar {
					r = pair
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			dst = utf8.AppendRune(dst, r)
			continue
		default: // '"', '\\', '/'
			dst = append(dst, e)
		}
		i += 2
	}
}

// peek skips whitespace and returns the next byte without consuming it.
func (d *jsonDecoder) peek() (byte, error) {
	for {
		for d.pos < len(d.buf) {
			switch c := d.buf[d.pos]; c {
			case ' ', '\t', '\n', '\r':
				d.pos++
			default:
				return c, nil
			}
		}
		if !d.more() {
			return 0, d.endErr()
		}
	}
}

// more reads at least one more byte into the window, sliding the unread
// bytes to its front first and growing it only when they fill it (one
// token longer than the window). It reports false at the end of the input
// or on a read error, which endErr then reports.
func (d *jsonDecoder) more() bool {
	if d.rerr != nil {
		return false
	}
	if d.pos > 0 {
		d.buf = d.buf[:copy(d.buf[:cap(d.buf)], d.buf[d.pos:])]
		d.pos = 0
	}
	if len(d.buf) == cap(d.buf) {
		d.buf = slices.Grow(d.buf, len(d.buf))
	}
	for range noProgress {
		n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err != nil {
			d.rerr = err
		}
		if n > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
	d.rerr = io.ErrNoProgress
	return false
}

// endErr is the error for input that ended where more was needed: the
// reader's own error, or io.ErrUnexpectedEOF at a clean end.
func (d *jsonDecoder) endErr() error {
	if d.rerr == nil || d.rerr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return d.rerr
}

// badChar is the syntax error for an unexpected byte, worded as
// encoding/json words it.
func badChar(c byte, context string) error {
	return fmt.Errorf("invalid character %q %s", rune(c), context)
}

// AppendJSONRead appends one read in the wire schema — exactly the bytes
// json.Marshal writes for
//
//	struct {
//		Name string `json:"name"`
//		Seq  string `json:"seq"`
//		Qual string `json:"qual,omitempty"`
//	}{name, string(seq), string(qual)}
//
// so a request encoded here is byte-identical to one encoded by reflection.
func AppendJSONRead(dst []byte, name string, seq, qual []byte) []byte {
	dst = append(dst, `{"name":`...)
	dst = appendJSONString(dst, name)
	dst = append(dst, `,"seq":`...)
	dst = appendJSONString(dst, seq)
	if len(qual) > 0 {
		dst = append(dst, `,"qual":`...)
		dst = appendJSONString(dst, qual)
	}
	return append(dst, '}')
}

// jsonSafe marks the ASCII bytes json.Marshal writes unescaped: printable,
// and none of '"', '\\' and the HTML-sensitive '<', '>', '&'.
var jsonSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// safePrefix returns how many leading bytes of s are jsonSafe.
func safePrefix[S string | []byte](s S) int {
	i := 0
	for i < len(s) && jsonSafe[s[i]] {
		i++
	}
	return i
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaped as
// json.Marshal escapes it (HTML escaping on).
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	for i := 0; ; {
		n := safePrefix(s[i:])
		dst = append(dst, s[i:i+n]...)
		if i += n; i == len(s) {
			return append(dst, '"')
		}
		c := s[i]
		if c < utf8.RuneSelf {
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && n == 1:
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029': // JavaScript line terminators
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			dst = append(dst, s[i:i+n]...)
		}
		i += n
	}
}
