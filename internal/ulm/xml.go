package ulm

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// XML rendering of ULM records — the "ULM to XML filter for the
// gateway, so a consumer can request either format for event data"
// (paper §7.0). The schema is a straightforward attribute/element
// mapping, pending what the paper calls "further progress in
// standardizing event schemas from the Performance Working Group of the
// GridForum":
//
//	<ulmEvent date="20000330112320.957943" host="h" prog="p" lvl="Usage" event="E"><field name="K">V</field></ulmEvent>
//
// The codec is hand-written: the encoder appends into the caller's
// buffer and the decoder is one pass over the input with no
// reflection. The encoder's output is byte-identical to what
// encoding/xml's Marshal produced for the earlier struct mapping, and
// the decoder accepts and decodes what encoding/xml's Unmarshal did;
// the tests keep that mapping as their oracle.

// xmlEscapes maps each ASCII byte to its escape, or "" for a byte that
// is written as is. The escapes are encoding/xml's: the five markup
// characters as references, tab/LF/CR as hex references (so they
// survive attribute-value normalisation), and the other C0 controls,
// which XML cannot carry at all, as U+FFFD.
var xmlEscapes = func() (t [utf8.RuneSelf]string) {
	for c := 0; c < 0x20; c++ {
		t[c] = "\uFFFD"
	}
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	t['"'], t['\''], t['&'], t['<'], t['>'] = "&#34;", "&#39;", "&amp;", "&lt;", "&gt;"
	return t
}()

// AppendXML appends the ulmEvent element for r to dst and returns the
// extended buffer. Attributes come in the order date, host, prog, lvl,
// event (omitted when empty); each user field is one
// <field name="K">V</field> child. Invalid UTF-8 and characters XML
// cannot represent are written as U+FFFD.
func AppendXML(dst []byte, r *Record) []byte {
	dst = append(dst, `<ulmEvent date="`...)
	dst = r.Date.UTC().AppendFormat(dst, DateLayout)
	dst = append(dst, `" host="`...)
	dst = appendXMLText(dst, r.Host)
	dst = append(dst, `" prog="`...)
	dst = appendXMLText(dst, r.Prog)
	dst = append(dst, `" lvl="`...)
	dst = appendXMLText(dst, r.Lvl)
	if r.Event != "" {
		dst = append(dst, `" event="`...)
		dst = appendXMLText(dst, r.Event)
	}
	dst = append(dst, `">`...)
	for _, f := range r.Fields {
		dst = append(dst, `<field name="`...)
		dst = appendXMLText(dst, f.Key)
		dst = append(dst, `">`...)
		dst = appendXMLText(dst, f.Value)
		dst = append(dst, `</field>`...)
	}
	return append(dst, `</ulmEvent>`...)
}

// appendXMLText appends s escaped for use as an attribute value or as
// character data.
func appendXMLText(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		start := i
		var esc string
		if c := s[i]; c < utf8.RuneSelf {
			i++
			if esc = xmlEscapes[c]; esc == "" {
				continue
			}
		} else {
			r, w := utf8.DecodeRuneInString(s[i:])
			i += w
			if (r != utf8.RuneError || w != 1) && isXMLChar(r) {
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(dst, s[last:start]...)
		dst = append(dst, esc...)
		last = i
	}
	return append(dst, s[last:]...)
}

// isXMLChar reports whether r is in XML's Char production.
func isXMLChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= utf8.MaxRune
}

// ToXML renders r as a standalone XML document fragment.
func ToXML(r *Record) ([]byte, error) {
	n := 96 + len(r.Host) + len(r.Prog) + len(r.Lvl) + len(r.Event)
	for _, f := range r.Fields {
		n += 24 + len(f.Key) + len(f.Value)
	}
	return AppendXML(make([]byte, 0, n), r), nil
}

// WriteXMLStream writes records to w as a sequence of ulmEvent elements
// wrapped in a ulmStream root element, one element per line.
func WriteXMLStream(w io.Writer, recs []Record) error {
	buf := []byte("<ulmStream>\n")
	for i := range recs {
		buf = append(buf, "  "...)
		buf = append(AppendXML(buf, &recs[i]), '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
	}
	buf = append(buf, "</ulmStream>\n"...)
	_, err := w.Write(buf)
	return err
}

// FromXML parses a record from an XML fragment produced by ToXML; it is
// ParseXML on a copy of data.
func FromXML(data []byte) (Record, error) {
	return ParseXML(string(data))
}

// errXMLUnsupported marks input that encoding/xml would have accepted
// but ParseXML deliberately rejects; see ParseXML.
var errXMLUnsupported = errors.New("ulm: xml: unsupported")

// ParseXML parses the record in the first element of s, which must be a
// ulmEvent element. It accepts what encoding/xml's Unmarshal accepts for
// that element and decodes it to the same record:
//
//   - attributes in any order, quoted with ' or ", matched by local name
//     (a namespace prefix is ignored; the last of a repeated attribute
//     wins);
//   - the five predefined entities and decimal/hex character references;
//   - CDATA sections, which add to a field's value;
//   - a prolog, comments, processing instructions and directives, which
//     are skipped (an <?xml?> declaration must name version 1.0 and
//     UTF-8, if any);
//   - unknown attributes and child elements, which are ignored, as is
//     character data outside <field>;
//   - CR and CRLF in character data and attribute values read as LF;
//   - anything after the ulmEvent element, which is not read.
//
// Strings in the result may share memory with s. The date is read by
// ParseDate and the result checked by Validate.
//
// Deliberately rejected: element, attribute and processing-instruction
// names containing non-ASCII characters. encoding/xml accepts those
// that are XML names; ULM names are ASCII, and checking XML's Unicode
// name classes is not worth carrying here.
func ParseXML(s string) (Record, error) {
	x := xmlScanner{s: s}
	// The prolog: everything before the first start tag.
	for {
		tok, err := x.next(false)
		if err != nil {
			return Record{}, err
		}
		if tok == tokStart {
			break
		}
		if tok == tokEnd {
			return Record{}, x.fail("unexpected end element </" + x.name + ">")
		}
		if tok == tokEOF {
			return Record{}, x.fail("no ulmEvent element")
		}
	}
	if x.local != "ulmEvent" {
		return Record{}, x.fail("expected element <ulmEvent>, have <" + x.local + ">")
	}
	root := x.name
	var date, host, prog, lvl, event string
	for {
		name, val, done, err := x.attr()
		if err != nil {
			return Record{}, err
		}
		if done {
			break
		}
		switch name {
		case "date":
			date = val
		case "host":
			host = val
		case "prog":
			prog = val
		case "lvl":
			lvl = val
		case "event":
			event = val
		}
	}
	var fieldsBuf [8]Field
	fields := fieldsBuf[:0]
	for open := !x.empty; open; {
		tok, err := x.next(false)
		if err != nil {
			return Record{}, err
		}
		switch tok {
		case tokEOF:
			return Record{}, x.fail("unexpected EOF")
		case tokEnd:
			if x.name != root {
				return Record{}, x.fail("element <" + root + "> closed by </" + x.name + ">")
			}
			open = false
		case tokStart:
			name, isField := x.name, x.local == "field"
			key, err := x.attrValue(isField, "name")
			if err != nil {
				return Record{}, err
			}
			if !isField {
				if err := x.skip(name); err != nil {
					return Record{}, err
				}
				continue
			}
			val, err := x.content(name)
			if err != nil {
				return Record{}, err
			}
			fields = append(fields, Field{key, val})
		}
	}
	t, err := ParseDate(date)
	if err != nil {
		return Record{}, err
	}
	r := Record{Date: t, Host: host, Prog: prog, Lvl: lvl, Event: event, Fields: make([]Field, len(fields))}
	copy(r.Fields, fields)
	return r, r.Validate()
}

type xmlToken int

const (
	tokEOF   xmlToken = iota
	tokText           // character data or a CDATA section, in x.text
	tokStart          // a start tag; its attributes follow through x.attr
	tokEnd            // an end tag, named x.name
	tokOther          // a comment, processing instruction or directive
)

// xmlScanner reads XML markup from s, checking it the way encoding/xml
// does in strict mode.
type xmlScanner struct {
	s string
	i int
	// name and local are the raw and local names of the last start or
	// end tag; empty is set once a start tag's attributes end in "/>"
	// (a self-closing element, or no more content).
	name, local string
	empty       bool
	text        string
	buf         []byte
}

func (x *xmlScanner) fail(msg string) error {
	return fmt.Errorf("ulm: xml: %s at byte %d", msg, x.i)
}

// next reads one token. Character data and CDATA are always checked;
// keep asks for their decoded text in x.text.
func (x *xmlScanner) next(keep bool) (xmlToken, error) {
	s := x.s
	if x.i >= len(s) {
		return tokEOF, nil
	}
	if s[x.i] != '<' {
		end := strings.IndexByte(s[x.i:], '<')
		if end < 0 {
			end = len(s)
		} else {
			end += x.i
		}
		raw := s[x.i:end]
		if strings.Contains(raw, "]]>") {
			return 0, x.fail("unescaped ]]> not in CDATA section")
		}
		var err error
		x.text, err = x.unescape(raw, true, keep)
		x.i = end
		return tokText, err
	}
	if x.i+1 >= len(s) {
		return 0, x.eof()
	}
	switch s[x.i+1] {
	case '/':
		x.i += 2
		raw, local, err := x.nsname()
		if err != nil {
			return 0, err
		}
		x.name, x.local = raw, local
		x.space()
		if x.i >= len(s) {
			return 0, x.eof()
		}
		if s[x.i] != '>' {
			return 0, x.fail("invalid characters between </" + raw + " and >")
		}
		x.i++
		return tokEnd, nil
	case '?':
		x.i += 2
		return tokOther, x.procInst()
	case '!':
		x.i += 2
		if x.i >= len(s) {
			return 0, x.eof()
		}
		switch s[x.i] {
		case '-':
			if x.i+1 >= len(s) {
				return 0, x.eof()
			}
			if s[x.i+1] != '-' {
				return 0, x.fail("invalid sequence <!- not part of <!--")
			}
			x.i += 2
			// The first "--" in a comment must end it.
			j := strings.Index(s[x.i:], "--")
			if j < 0 || x.i+j+2 >= len(s) {
				return 0, x.eof()
			}
			x.i += j + 2
			if s[x.i] != '>' {
				return 0, x.fail(`invalid sequence "--" not allowed in comments`)
			}
			x.i++
			return tokOther, nil
		case '[':
			x.i++
			if !strings.HasPrefix(s[x.i:], "CDATA[") {
				return 0, x.fail("invalid <![ sequence")
			}
			x.i += len("CDATA[")
			end := strings.Index(s[x.i:], "]]>")
			if end < 0 {
				return 0, x.fail("unexpected EOF in CDATA section")
			}
			var err error
			x.text, err = x.unescape(s[x.i:x.i+end], false, keep)
			x.i += end + len("]]>")
			return tokText, err
		}
		x.i++
		return tokOther, x.directive()
	}
	x.i++
	raw, local, err := x.nsname()
	if err != nil {
		return 0, err
	}
	x.name, x.local, x.empty = raw, local, false
	return tokStart, nil
}

func (x *xmlScanner) eof() error {
	return x.fail("unexpected EOF")
}

// space skips XML white space.
func (x *xmlScanner) space() {
	for x.i < len(x.s) {
		switch x.s[x.i] {
		case ' ', '\r', '\n', '\t':
			x.i++
		default:
			return
		}
	}
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// xmlName reads an XML name.
func (x *xmlScanner) xmlName() (string, error) {
	s, start := x.s, x.i
	for x.i < len(s) && isNameByte(s[x.i]) {
		x.i++
	}
	if x.i == len(s) {
		return "", x.eof()
	}
	if s[x.i] >= utf8.RuneSelf {
		return "", fmt.Errorf("%w: non-ASCII name at byte %d", errXMLUnsupported, x.i)
	}
	if x.i == start {
		return "", x.fail("expected name")
	}
	if c := s[start]; '0' <= c && c <= '9' || c == '.' || c == '-' {
		return "", x.fail("invalid XML name: " + s[start:x.i])
	}
	return s[start:x.i], nil
}

// nsname reads an element or attribute name and returns it with its
// local part: the part after the prefix, in a name with one colon
// between two non-empty parts.
func (x *xmlScanner) nsname() (raw, local string, err error) {
	raw, err = x.xmlName()
	if err != nil {
		return "", "", err
	}
	switch c := strings.IndexByte(raw, ':'); {
	case c < 0:
		return raw, raw, nil
	case strings.IndexByte(raw[c+1:], ':') >= 0:
		return "", "", x.fail("invalid name " + raw)
	case c == 0 || c == len(raw)-1:
		return raw, raw, nil
	default:
		return raw, raw[c+1:], nil
	}
}

// attr reads the next attribute of the start tag being read and returns
// its local name and value. At the end of the tag it returns done, with
// x.empty set when the tag closes the element too.
func (x *xmlScanner) attr() (local, val string, done bool, err error) {
	x.space()
	s := x.s
	if x.i >= len(s) {
		return "", "", false, x.eof()
	}
	switch s[x.i] {
	case '>':
		x.i++
		return "", "", true, nil
	case '/':
		if x.i+1 >= len(s) {
			return "", "", false, x.eof()
		}
		if s[x.i+1] != '>' {
			return "", "", false, x.fail("expected /> in element")
		}
		x.i += 2
		x.empty = true
		return "", "", true, nil
	}
	if _, local, err = x.nsname(); err != nil {
		return "", "", false, err
	}
	x.space()
	if x.i >= len(s) {
		return "", "", false, x.eof()
	}
	if s[x.i] != '=' {
		return "", "", false, x.fail("attribute name without = in element")
	}
	x.i++
	x.space()
	if x.i >= len(s) {
		return "", "", false, x.eof()
	}
	q := s[x.i]
	if q != '"' && q != '\'' {
		return "", "", false, x.fail("unquoted or missing attribute value in element")
	}
	x.i++
	end := strings.IndexByte(s[x.i:], q)
	if end < 0 {
		return "", "", false, x.eof()
	}
	raw := s[x.i : x.i+end]
	if strings.IndexByte(raw, '<') >= 0 {
		return "", "", false, x.fail("unescaped < inside quoted string")
	}
	x.i += end + 1
	val, err = x.unescape(raw, true, true)
	return local, val, false, err
}

// attrValue reads the rest of a start tag and returns the value of the
// last attribute with local name want, when keep is set.
func (x *xmlScanner) attrValue(keep bool, want string) (string, error) {
	var v string
	for {
		name, val, done, err := x.attr()
		if err != nil || done {
			return v, err
		}
		if keep && name == want {
			v = val
		}
	}
}

// content reads the content of the element whose start tag was just
// read, through its end tag, and returns its character data. Child
// elements, and the character data inside them, are skipped.
func (x *xmlScanner) content(name string) (string, error) {
	if x.empty {
		return "", nil
	}
	var v string
	var joined []byte
	for {
		tok, err := x.next(true)
		if err != nil {
			return "", err
		}
		switch tok {
		case tokEOF:
			return "", x.eof()
		case tokText:
			switch {
			case x.text == "":
			case v == "" && joined == nil:
				v = x.text
			default:
				if joined == nil {
					joined = append(joined, v...)
				}
				joined = append(joined, x.text...)
			}
		case tokStart:
			if _, err := x.attrValue(false, ""); err != nil {
				return "", err
			}
			if err := x.skip(x.name); err != nil {
				return "", err
			}
		case tokEnd:
			if x.name != name {
				return "", x.fail("element <" + name + "> closed by </" + x.name + ">")
			}
			if joined != nil {
				v = string(joined)
			}
			return v, nil
		}
	}
}

// skip reads the rest of the element named name, whose start tag was
// just read, through its end tag, checking that tags nest.
func (x *xmlScanner) skip(name string) error {
	if x.empty {
		return nil
	}
	var stackBuf [8]string
	open := append(stackBuf[:0], name)
	for len(open) > 0 {
		tok, err := x.next(false)
		if err != nil {
			return err
		}
		switch tok {
		case tokEOF:
			return x.eof()
		case tokStart:
			name := x.name
			if _, err := x.attrValue(false, ""); err != nil {
				return err
			}
			if !x.empty {
				open = append(open, name)
			}
		case tokEnd:
			if top := open[len(open)-1]; x.name != top {
				return x.fail("element <" + top + "> closed by </" + x.name + ">")
			}
			open = open[:len(open)-1]
		}
	}
	return nil
}

// unescape checks raw character data — an attribute value when
// entities is set and the span holds no '<', a CDATA section's content
// otherwise — and, when keep is set, returns its text: references
// replaced and CR or CRLF read as LF.
func (x *xmlScanner) unescape(raw string, entities, keep bool) (string, error) {
	plain := true
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c >= 0x20 && c < utf8.RuneSelf:
			if c == '&' && entities {
				plain = false
			}
			i++
			continue
		case c == '\r':
			plain = false
			i++
			continue
		case c == '\t' || c == '\n':
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(raw[i:])
		if r == utf8.RuneError && w == 1 {
			return "", x.fail("invalid UTF-8")
		}
		if !isXMLChar(r) {
			return "", x.fail(fmt.Sprintf("illegal character code %U", r))
		}
		i += w
	}
	if plain {
		return raw, nil
	}
	b := x.buf[:0]
	afterCR := false
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '&' && entities:
			r, n, err := x.reference(raw[i:])
			if err != nil {
				return "", err
			}
			b = utf8.AppendRune(b, r)
			i += n
			afterCR = false
			continue
		case c == '\r':
			b = append(b, '\n')
		case c == '\n' && afterCR:
		default:
			b = append(b, c)
		}
		afterCR = raw[i] == '\r'
		i++
	}
	x.buf = b
	if !keep {
		return "", nil
	}
	return string(b), nil
}

// reference decodes the entity or character reference at the start of
// s and returns its rune and length.
func (x *xmlScanner) reference(s string) (rune, int, error) {
	i := 1
	if i < len(s) && s[i] == '#' {
		i++
		base := 10
		if i < len(s) && s[i] == 'x' {
			base = 16
			i++
		}
		start := i
		for i < len(s) && ('0' <= s[i] && s[i] <= '9' ||
			base == 16 && ('a' <= s[i] && s[i] <= 'f' || 'A' <= s[i] && s[i] <= 'F')) {
			i++
		}
		if i < len(s) && s[i] == ';' {
			n, err := strconv.ParseUint(s[start:i], base, 64)
			if err == nil && n <= utf8.MaxRune {
				r := rune(n)
				if !utf8.ValidRune(r) {
					r = utf8.RuneError
				}
				if !isXMLChar(r) {
					return 0, 0, x.fail(fmt.Sprintf("illegal character code %U", r))
				}
				return r, i + 1, nil
			}
		}
	} else {
		for i < len(s) && (isNameByte(s[i]) || s[i] >= utf8.RuneSelf) {
			i++
		}
		if i < len(s) && s[i] == ';' {
			switch s[1:i] {
			case "lt":
				return '<', i + 1, nil
			case "gt":
				return '>', i + 1, nil
			case "amp":
				return '&', i + 1, nil
			case "apos":
				return '\'', i + 1, nil
			case "quot":
				return '"', i + 1, nil
			}
		}
	}
	return 0, 0, x.fail("invalid character entity " + s[:i])
}

// procInst reads a processing instruction after its "<?". An <?xml?>
// declaration must not name a version other than 1.0 or an encoding
// other than UTF-8.
func (x *xmlScanner) procInst() error {
	target, err := x.xmlName()
	if err != nil {
		return err
	}
	x.space()
	end := strings.Index(x.s[x.i:], "?>")
	if end < 0 {
		return x.eof()
	}
	data := x.s[x.i : x.i+end]
	x.i += end + len("?>")
	if target != "xml" {
		return nil
	}
	if v := xmlDeclParam("version", data); v != "" && v != "1.0" {
		return x.fail(fmt.Sprintf("unsupported version %q; only version 1.0 is supported", v))
	}
	if enc := xmlDeclParam("encoding", data); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return x.fail(fmt.Sprintf("encoding %q declared, only UTF-8 is read", enc))
	}
	return nil
}

// xmlDeclParam returns the quoted value of param in an <?xml?>
// declaration's data, found the way encoding/xml finds it.
func xmlDeclParam(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// directive skips a directive such as <!DOCTYPE ...>; x.i is past its
// first byte. Quoted '>' does not end it, nested <...> pairs are
// counted, and <!-- --> comments inside it are skipped.
func (x *xmlScanner) directive() error {
	s, i := x.s, x.i
	var quote byte
	depth := 0
	for {
		if i >= len(s) {
			x.i = i
			return x.eof()
		}
		b := s[i]
		i++
		if quote == 0 && b == '>' && depth == 0 {
			x.i = i
			return nil
		}
	handle:
		switch {
		case b == quote:
			quote = 0
		case quote != 0:
		case b == '\'' || b == '"':
			quote = b
		case b == '>':
			depth--
		case b == '<':
			const open = "!--"
			k := 0
			for ; k < len(open); k++ {
				if i >= len(s) {
					x.i = i
					return x.eof()
				}
				if s[i] != open[k] {
					break
				}
				i++
			}
			if k < len(open) {
				b = s[i]
				i++
				depth++
				goto handle
			}
			end := strings.Index(s[i:], "-->")
			if end < 0 {
				return x.eof()
			}
			i += end + len("-->")
		}
	}
}
