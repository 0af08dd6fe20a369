package ulm

import (
	"bytes"
	"encoding/xml"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The reflection-based encoding/xml mapping the hand-written codec
// replaced. It stays here as the oracle: AppendXML must produce what
// xml.Marshal produces for a Record, and ParseXML must accept what
// xml.Unmarshal accepts and decode it to the same Record.

type xmlRecord struct {
	XMLName xml.Name   `xml:"ulmEvent"`
	Date    string     `xml:"date,attr"`
	Host    string     `xml:"host,attr"`
	Prog    string     `xml:"prog,attr"`
	Lvl     string     `xml:"lvl,attr"`
	Event   string     `xml:"event,attr,omitempty"`
	Fields  []xmlField `xml:"field"`
}

type xmlField struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

func (r Record) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	x := xmlRecord{
		Date:   FormatDate(r.Date),
		Host:   r.Host,
		Prog:   r.Prog,
		Lvl:    r.Lvl,
		Event:  r.Event,
		Fields: make([]xmlField, len(r.Fields)),
	}
	for i, f := range r.Fields {
		x.Fields[i] = xmlField{f.Key, f.Value}
	}
	return e.Encode(x)
}

func (r *Record) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	var x xmlRecord
	if err := d.DecodeElement(&x, &start); err != nil {
		return err
	}
	t, err := ParseDate(x.Date)
	if err != nil {
		return err
	}
	r.Date = t
	r.Host = x.Host
	r.Prog = x.Prog
	r.Lvl = x.Lvl
	r.Event = x.Event
	r.Fields = make([]Field, len(x.Fields))
	for i, f := range x.Fields {
		r.Fields[i] = Field{f.Name, f.Value}
	}
	return r.Validate()
}

func oracleFromXML(data []byte) (Record, error) {
	var r Record
	err := xml.Unmarshal(data, &r)
	return r, err
}

// hostileString draws a string that exercises every escaping rule:
// markup characters, tab/LF/CR, other control bytes, invalid UTF-8,
// U+FFFD itself, non-characters and non-BMP runes.
func hostileString(rnd *rand.Rand) string {
	pieces := []string{
		"a", "Z", "0", " ", ".", "=", `"`, "'", "&", "<", ">", "]]>",
		"\t", "\n", "\r", "\r\n", "\x00", "\x01", "\x1f", "\x7f",
		"\x80", "\xff", "\xc3", "\xed\xa0\x80", "\xf4\x90\x80\x80",
		"é", "\u2028", "\uFFFD", "\uFFFE", "\uFFFF", "\U0001F600", "\U0010FFFF",
		"&amp;", "&#34;",
	}
	var b strings.Builder
	for i, n := 0, rnd.Intn(8); i < n; i++ {
		b.WriteString(pieces[rnd.Intn(len(pieces))])
	}
	return b.String()
}

func hostileRecord(rnd *rand.Rand) Record {
	r := Record{
		Date:  time.UnixMicro(rnd.Int63n(4e15)).UTC(),
		Host:  hostileString(rnd),
		Prog:  hostileString(rnd),
		Lvl:   hostileString(rnd),
		Event: hostileString(rnd),
	}
	for i, n := 0, rnd.Intn(5); i < n; i++ {
		r.Fields = append(r.Fields, Field{hostileString(rnd), hostileString(rnd)})
	}
	return r
}

func TestAppendXMLMatchesMarshal(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	recs := []Record{sampleRecord(), {}, {Date: sampleRecord().Date, Fields: []Field{}}}
	for i := 0; i < 20000; i++ {
		recs = append(recs, hostileRecord(rnd))
	}
	for i := range recs {
		want, err := xml.Marshal(recs[i])
		if err != nil {
			t.Fatalf("xml.Marshal(%+v): %v", recs[i], err)
		}
		if got := AppendXML([]byte("prefix"), &recs[i]); !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("AppendXML(%+v)\n got %q\nwant %q", recs[i], got[len("prefix"):], want)
		}
		if got, _ := ToXML(&recs[i]); !bytes.Equal(got, want) {
			t.Fatalf("ToXML(%+v)\n got %q\nwant %q", recs[i], got, want)
		}
		checkDecoders(t, want)
	}
}

// checkDecoders fails t unless ParseXML and xml.Unmarshal agree on data:
// both reject it, or both accept it and decode the same record. The one
// allowed disagreement is a rejection ParseXML documents as deliberate.
func checkDecoders(t *testing.T, data []byte) {
	t.Helper()
	want, werr := oracleFromXML(data)
	got, gerr := FromXML(data)
	switch {
	case gerr != nil && werr != nil:
	case errors.Is(gerr, errXMLUnsupported):
	case gerr != nil:
		t.Fatalf("ParseXML rejects what encoding/xml accepts\ninput %q\nerror %v\noracle %+v", data, gerr, want)
	case werr != nil:
		t.Fatalf("ParseXML accepts what encoding/xml rejects\ninput %q\noracle error %v\ngot %+v", data, werr, got)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decoders disagree\ninput %q\n got %+v\nwant %+v", data, got, want)
	}
}

const xmlHead = `<ulmEvent date="20000330112320.957943" host="h" prog="p" lvl="Usage">`

// xmlVariants are hand-written inputs for the shapes encoding/xml
// accepts or rejects that AppendXML never produces.
var xmlVariants = []string{
	// Attribute order, quoting and white space.
	`<ulmEvent lvl="Usage" prog="p" host="h" date="20000330112320.957943"></ulmEvent>`,
	`<ulmEvent date='20000330112320.957943' host='h"q' prog="p'q" lvl='Usage'/>`,
	"<ulmEvent\n\tdate = \"20000330112320.957943\"\r\nhost=\"h\"prog=\"p\" lvl=\"Usage\" ><field\tname='K' >v</field ></ulmEvent\n>",
	`<ulmEvent date="20000330112320.957943" host="h1" host="h2" prog="p" lvl="Usage"/>`,
	`<ulmEvent date="20000330112320" host="h" prog="p" lvl="Usage"/>`,
	`<ulmEvent date="20000330112320.9" host="h" prog="p" lvl="Usage" event=""/>`,
	`<ulmEvent date="bad" host="h" prog="p" lvl="Usage"/>`,
	`<ulmEvent host="h" prog="p" lvl="Usage"/>`,
	`<ulmEvent date="20000330112320.957943" host="" prog="p" lvl="Usage"/>`,
	`<ulmEvent date="20000330112320.957943" host=h prog="p" lvl="Usage"/>`,
	`<ulmEvent date="20000330112320.957943" host prog="p" lvl="Usage"/>`,
	`<ulmEvent date="20000330112320.957943" host="<" prog="p" lvl="Usage"/>`,
	`<ulmEvent date="20000330112320.957943" host="a]]>b" prog="p" lvl="Usage"/>`,
	`<ulmEvent date="20000330112320.957943" host="h" prog="p" lvl="Usage"/ >`,
	// Entity and character references.
	xmlHead + `<field name="K&amp;&lt;&gt;&apos;">&quot;&#65;&#x42;&#x1F600;&#xd800;&#10;</field></ulmEvent>`,
	xmlHead + `<field name="K">&#0;</field></ulmEvent>`,
	xmlHead + `<field name="K">&#xFFFE;</field></ulmEvent>`,
	xmlHead + `<field name="K">&#x110000;</field></ulmEvent>`,
	xmlHead + `<field name="K">&#X41;</field></ulmEvent>`,
	xmlHead + `<field name="K">&#;</field></ulmEvent>`,
	xmlHead + `<field name="K">&amp</field></ulmEvent>`,
	xmlHead + `<field name="K">&nbsp;</field></ulmEvent>`,
	xmlHead + `<field name="K">&;</field></ulmEvent>`,
	xmlHead + `<field name="K">a]]>b</field></ulmEvent>`,
	xmlHead + `<field name="K">a]]&gt;b]&#93;>c</field></ulmEvent>`,
	`<ulmEvent date="20000330112320.957943" host="&#x9;&#xA;&#xD;&#x20;" prog="p&#34;" lvl="Usage"/>`,
	// CDATA.
	xmlHead + `<field name="K">a<![CDATA[<&]]]>b</field></ulmEvent>`,
	xmlHead + `<field name="K"><![CDATA[]]><![CDATA[x]]></field></ulmEvent>`,
	xmlHead + `<field name="K"><![CDATA[open</field></ulmEvent>`,
	xmlHead + `<field name="K"><![CDAT[x]]></field></ulmEvent>`,
	xmlHead + "<![CDATA[\x01]]></ulmEvent>",
	// Prolog, comments, PIs and directives.
	`<?xml version="1.0" encoding="UTF-8"?>` + "\n<!-- c -->\n" + xmlHead + `</ulmEvent>`,
	`<?xml version='1.0' encoding='utf-8' standalone='yes'?>` + xmlHead + `</ulmEvent>`,
	`<?xml version="1.1"?>` + xmlHead + `</ulmEvent>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?>` + xmlHead + `</ulmEvent>`,
	`<?xml encoding=UTF-16 version="1.0"?>` + xmlHead + `</ulmEvent>`,
	`<?pi data?>` + xmlHead + `<?xml version="2.0"?></ulmEvent>`,
	`<?1pi?>` + xmlHead + `</ulmEvent>`,
	`<!DOCTYPE ulmEvent [<!ELEMENT ulmEvent ANY> <!-- <x> --> <!ATTLIST x y ">">]>` + xmlHead + `</ulmEvent>`,
	`<!>>` + xmlHead + `</ulmEvent>`,
	`<!DOCTYPE <<>>>` + xmlHead + `</ulmEvent>`,
	xmlHead + `<!-- a - b --><field name="K">v<!-- x -->w</field></ulmEvent>`,
	xmlHead + `<!-- a -- b --></ulmEvent>`,
	xmlHead + `<!---></ulmEvent>`,
	xmlHead + `<!----></ulmEvent>`,
	xmlHead + `<!- x --></ulmEvent>`,
	"text before \xef\xbb\xbf" + xmlHead + `</ulmEvent>`,
	"\x01" + xmlHead + `</ulmEvent>`,
	"&bogus;" + xmlHead + `</ulmEvent>`,
	"]]>" + xmlHead + `</ulmEvent>`,
	`</x>` + xmlHead + `</ulmEvent>`,
	// Raw CR, CRLF and line ends in attributes and content.
	"<ulmEvent date=\"20000330112320.957943\" host=\"a\rb\r\nc\n\rd\" prog=\"p\" lvl=\"Usage\"><field name=\"K\">x\r\ny\r\rz\r</field><field name=\"L\"><![CDATA[\r\n]]>\n</field></ulmEvent>",
	xmlHead + "<field name=\"K\">&#xD;\n\r&#xA;</field></ulmEvent>",
	// Unknown attributes and children, namespaces, self-closing fields.
	`<ulmEvent date="20000330112320.957943" host="h" prog="p" lvl="Usage" x:host="h2" xmlns:lvl="L" other="o">` +
		`<unknown a="b"><field name="hidden">h</field>text</unknown>ignored text<field name="K" extra="e">v<b>skipped</b>w</field>` +
		`<field name="E"/><field/><field name="K2"><field name="N">nested</field></field><x:field name="P">ns</x:field></ulmEvent>`,
	`<ns:ulmEvent xmlns:ns="urn:x" date="20000330112320.957943" host="h" prog="p" lvl="Usage"></ns:ulmEvent>`,
	`<ns:ulmEvent date="20000330112320.957943" host="h" prog="p" lvl="Usage"></ulmEvent>`,
	`<a:b:ulmEvent date="20000330112320.957943" host="h" prog="p" lvl="Usage"/>`,
	`<:ulmEvent date="20000330112320.957943" host="h" prog="p" lvl="Usage"/>`,
	`<ulmEvent date="20000330112320.957943" host="h" prog="p" lvl="Usage" :x="1" y:="2" a:b:c="3"/>`,
	xmlHead + `<field name="K">v</fieldx></ulmEvent>`,
	xmlHead + `<x><y></x></y></ulmEvent>`,
	xmlHead + `<field name="K"></ulmEvent>`,
	xmlHead + `<field name="K" name="K2">v</field></ulmEvent>`,
	xmlHead + `<field name="bad key">v</field></ulmEvent>`,
	xmlHead + `<field>v</field></ulmEvent>`,
	`<other date="20000330112320.957943" host="h" prog="p" lvl="Usage"/>`,
	`<ulmEventX date="20000330112320.957943" host="h" prog="p" lvl="Usage"/>`,
	`< ulmEvent/>`,
	`<1ulmEvent/>`,
	// Non-ASCII names: deliberately rejected.
	xmlHead + `<é/></ulmEvent>`,
	`<ulmEvent date="20000330112320.957943" host="h" prog="p" lvl="Usage" é="1"/>`,
	// Invalid characters.
	xmlHead + "<field name=\"K\">\xff</field></ulmEvent>",
	xmlHead + "<field name=\"K\">\x00</field></ulmEvent>",
	xmlHead + "<field name=\"K\">\xef\xbf\xbe</field></ulmEvent>",
	// Trailing data and truncation.
	xmlHead + `</ulmEvent>trailing <garbage &bogus; ]]>`,
	xmlHead + `</ulmEvent><ulmEvent/>`,
	xmlHead + `</ulmEvent`,
	xmlHead,
	`<ulmEvent date="20000330112320.957943" host="h`,
	`<ulmEvent`,
	`<`,
	``,
	`   `,
	`<!-- only a comment -->`,
	`<broken`,
}

func TestParseXMLVariants(t *testing.T) {
	for _, v := range xmlVariants {
		checkDecoders(t, []byte(v))
	}
}

func TestParseXMLDecodes(t *testing.T) {
	date := time.Date(2000, 3, 30, 11, 23, 20, 957943000, time.UTC)
	cases := []struct {
		in   string
		want Record
	}{
		{xmlVariants[1], Record{Date: date, Host: `h"q`, Prog: "p'q", Lvl: "Usage", Fields: []Field{}}},
		{xmlVariants[3], Record{Date: date, Host: "h2", Prog: "p", Lvl: "Usage", Fields: []Field{}}},
		{xmlVariants[14], Record{Date: date, Host: "h", Prog: "p", Lvl: "Usage",
			Fields: []Field{{"K&<>'", "\"AB\U0001F600\uFFFD\n"}}}},
		{xmlHead + `<field name="K">a<![CDATA[<&]]]>b</field></ulmEvent>`, Record{Date: date, Host: "h", Prog: "p", Lvl: "Usage",
			Fields: []Field{{"K", "a<&]b"}}}},
		{xmlHead + "<field name=\"K\">x\r\ny\r\rz\r</field></ulmEvent>", Record{Date: date, Host: "h", Prog: "p", Lvl: "Usage",
			Fields: []Field{{"K", "x\ny\n\nz\n"}}}},
		{xmlHead + "<field name=\"K\">&#xD;\n</field></ulmEvent>trailing", Record{Date: date, Host: "h", Prog: "p", Lvl: "Usage",
			Fields: []Field{{"K", "\r\n"}}}},
		{`<?xml version="1.0"?><!DOCTYPE x><ns:ulmEvent date="20000330112320.957943" ns:host="h" prog="p" lvl="Usage">` +
			`<u><field name="hidden"/></u><field name="K">v<b>x</b>w</field><field name="E"/></ns:ulmEvent>`,
			Record{Date: date, Host: "h", Prog: "p", Lvl: "Usage", Fields: []Field{{"K", "vw"}, {"E", ""}}}},
	}
	for _, c := range cases {
		got, err := ParseXML(c.in)
		if err != nil {
			t.Errorf("ParseXML(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseXML(%q)\n got %+v\nwant %+v", c.in, got, c.want)
		}
	}
}

// FuzzXMLRecord checks that ParseXML and encoding/xml's Unmarshal agree
// on every input: both reject it, or both decode the same record, which
// AppendXML must then render as xml.Marshal does.
func FuzzXMLRecord(f *testing.F) {
	rnd := rand.New(rand.NewSource(7))
	seeds := []Record{sampleRecord()}
	for i := 0; i < 8; i++ {
		seeds = append(seeds, hostileRecord(rnd))
	}
	for i := range seeds {
		enc := AppendXML(nil, &seeds[i])
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	for _, v := range xmlVariants {
		f.Add([]byte(v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoders(t, data)
		if r, err := FromXML(data); err == nil {
			want, err := xml.Marshal(r)
			if err != nil {
				t.Fatalf("xml.Marshal: %v", err)
			}
			if got := AppendXML(nil, &r); !bytes.Equal(got, want) {
				t.Fatalf("AppendXML(%+v)\n got %q\nwant %q", r, got, want)
			}
		}
	})
}
