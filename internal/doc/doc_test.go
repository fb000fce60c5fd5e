package doc

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

const sample = `<paper title="PlanetP">
  <abstract>Gossiping replicates the global directory.</abstract>
  <file href="/papers/planetp.pdf"/>
  <related src="http://example.org/chord.ps"/>
  <image href="diagram.png"/>
</paper>`

func TestParseExtractsTextAndTags(t *testing.T) {
	d := Parse(sample)
	if !strings.Contains(d.Text, "Gossiping replicates the global directory.") {
		t.Fatalf("text missing char data: %q", d.Text)
	}
	// Footnote 2: tags index as plain terms.
	for _, tag := range []string{"paper", "abstract", "file"} {
		if !strings.Contains(d.Text, tag) {
			t.Errorf("text missing tag %q", tag)
		}
	}
}

func TestParseExtractsLinks(t *testing.T) {
	d := Parse(sample)
	if len(d.Links) != 3 {
		t.Fatalf("links = %v, want 3", d.Links)
	}
	wantTypes := map[string]string{
		"/papers/planetp.pdf":         "pdf",
		"http://example.org/chord.ps": "ps",
		"diagram.png":                 "png",
	}
	for _, l := range d.Links {
		if wantTypes[l.URL] != l.Type {
			t.Errorf("link %q type %q, want %q", l.URL, l.Type, wantTypes[l.URL])
		}
	}
}

func TestKnownType(t *testing.T) {
	if !(Link{Type: "pdf"}).KnownType() || !(Link{Type: "txt"}).KnownType() {
		t.Error("pdf/txt should be known")
	}
	if (Link{Type: "png"}).KnownType() || (Link{Type: ""}).KnownType() {
		t.Error("png/empty should be unknown")
	}
}

func TestLinkType(t *testing.T) {
	cases := map[string]string{
		"a.PDF":          "pdf",
		"a.pdf?x=1":      "pdf",
		"a.txt#frag":     "txt",
		"noext":          "",
		"trailing.":      "",
		"/dir.d/file.ps": "ps",
	}
	for in, want := range cases {
		if got := linkType(in); got != want {
			t.Errorf("linkType(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHashIDStable(t *testing.T) {
	a, b := HashID("same"), HashID("same")
	if a != b {
		t.Fatal("hash not deterministic")
	}
	if HashID("other") == a {
		t.Fatal("distinct content should hash differently")
	}
	if len(a) != 32 {
		t.Fatalf("id length %d, want 32 hex chars", len(a))
	}
}

func TestParseMalformedXMLDegrades(t *testing.T) {
	d := Parse(`<a>early text<b>more`)
	if !strings.Contains(d.Text, "early text") {
		t.Fatalf("lost pre-error text: %q", d.Text)
	}
	if d.ID == "" {
		t.Fatal("malformed doc must still get an id")
	}
}

func TestIndexableTextWithResolver(t *testing.T) {
	d := Parse(sample)
	r := ResolverFunc(func(url string) (string, error) {
		switch {
		case strings.HasSuffix(url, ".pdf"):
			return "resolved pdf content", nil
		case strings.HasSuffix(url, ".ps"):
			return "", errors.New("unreachable")
		}
		return "", errors.New("should not resolve unknown types")
	})
	txt := d.IndexableText(r)
	if !strings.Contains(txt, "resolved pdf content") {
		t.Error("pdf content not indexed")
	}
	if strings.Contains(txt, "unreachable") {
		t.Error("failed resolution leaked into text")
	}
	// png is not a known type: resolver must not be consulted for it —
	// the ResolverFunc above errors if it is, and the error path is
	// silent, so assert directly:
	for _, l := range d.Links {
		if l.Type == "png" && l.KnownType() {
			t.Error("png treated as known type")
		}
	}
}

func TestIndexableTextNilResolver(t *testing.T) {
	d := Parse(sample)
	if d.IndexableText(nil) != d.Text {
		t.Fatal("nil resolver should return own text only")
	}
}

func TestTermsAndTermFreqs(t *testing.T) {
	d := Parse("<note>gossiping gossiping peers</note>")
	freqs := d.TermFreqs(nil)
	if freqs["gossip"] != 2 {
		t.Errorf("gossip freq = %d, want 2", freqs["gossip"])
	}
	terms := d.Terms(nil)
	if len(terms) == 0 {
		t.Fatal("no terms extracted")
	}
}

func TestStorePutGetDelete(t *testing.T) {
	s := NewStore()
	d := Parse("<x>hello world content</x>")
	if !s.Put(d.ID, d.Raw) {
		t.Fatal("first Put failed")
	}
	if s.Put(d.ID, d.Raw) {
		t.Fatal("duplicate Put should return false")
	}
	got, err := s.Get(d.ID)
	if err != nil || got != d.Raw {
		t.Fatalf("Get: %v %v", got, err)
	}
	if !s.Delete(d.ID) {
		t.Fatal("Delete failed")
	}
	if s.Delete(d.ID) {
		t.Fatal("double Delete should return false")
	}
	if _, err := s.Get(d.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound, got %v", err)
	}
}

func TestStoreIDsAndAll(t *testing.T) {
	s := NewStore()
	d1 := Parse("<a>one</a>")
	d2 := Parse("<b>two</b>")
	s.Put(d1.ID, d1.Raw)
	s.Put(d2.ID, d2.Raw)
	ids := s.IDs()
	if len(ids) != 2 || ids[0] > ids[1] {
		t.Fatalf("IDs = %v", ids)
	}
	if s.Len() != 2 || len(s.All()) != 2 {
		t.Fatal("Len/All mismatch")
	}
}

// Property: Parse is total (never panics) and always assigns a non-empty
// content-stable id.
func TestQuickParseTotal(t *testing.T) {
	f := func(s string) bool {
		d := Parse(s)
		return d.ID != "" && d.ID == HashID(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
