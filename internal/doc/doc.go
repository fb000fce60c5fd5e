// Package doc implements PlanetP's unit of storage: the published XML
// document (Section 2). A published document contains text and possibly
// links (XPointer-style hrefs) to external files; PlanetP indexes all text
// in the document plus the contents of linked files of known type, and
// stores the XML snippet itself in the publishing peer's local data store
// (external files are not stored by PlanetP).
package doc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"planetp/internal/text"
)

// ErrNotFound is returned when a document id is absent from a store.
var ErrNotFound = errors.New("doc: not found")

// Link is a reference from a published XML document to an external file.
type Link struct {
	// URL is the link target (href/xpointer attribute value).
	URL string
	// Type is the lowercase extension-derived type ("pdf", "ps", "txt",
	// ...), empty if undeterminable.
	Type string
}

// knownTypes are the external file types PlanetP knows how to extract text
// from (the paper names postscript, PDF, and text).
var knownTypes = map[string]bool{"ps": true, "pdf": true, "txt": true, "text": true}

// KnownType reports whether PlanetP would index the link target's content.
func (l Link) KnownType() bool { return knownTypes[l.Type] }

// Document is a parsed, published XML document.
type Document struct {
	// ID is the content hash of the raw XML, stable across peers.
	ID string
	// Raw is the original XML snippet.
	Raw string
	// Text is all character data extracted from the XML (tags currently
	// index as plain terms, matching the paper's footnote 2 behaviour).
	Text string
	// Links are the external references found in the XML.
	Links []Link
}

// Resolver fetches the content of a linked external file. A peer uses the
// one its configuration names (core.Config.Resolver; nil indexes each
// document's own text only); tests install fakes. Returning an error marks
// the link unresolvable — the document still indexes its own text.
type Resolver interface {
	Resolve(url string) (string, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(url string) (string, error)

// Resolve implements Resolver.
func (f ResolverFunc) Resolve(url string) (string, error) { return f(url) }

// Parse parses an XML snippet into a Document. Malformed XML degrades
// gracefully: whatever character data precedes the error is kept, so peers
// can still share imperfect snippets.
func Parse(raw string) *Document {
	d := &Document{Raw: raw, ID: HashID(raw)}
	d.walk(nil)
	return d
}

// Scoped maps each element name to the character data appearing directly
// inside it (innermost element wins) — the structured extension of
// footnote 2, enabling "tag:term" queries. It is derived from Raw on each
// call: only structured indexing reads it, so no document carries it.
func (d *Document) Scoped() map[string]string {
	scoped := make(map[string]string)
	(&Document{Raw: d.Raw}).walk(scoped)
	for tag, txt := range scoped {
		if strings.TrimSpace(txt) == "" {
			delete(scoped, tag)
		}
	}
	return scoped
}

// walk decodes Raw into Text and Links, and with a non-nil scoped map
// also collects each element's own character data into it.
func (d *Document) walk(scoped map[string]string) {
	dec := xml.NewDecoder(strings.NewReader(d.Raw))
	var sb strings.Builder
	var tags []string
	var stack []string
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch t := tok.(type) {
		case xml.StartElement:
			tags = append(tags, t.Name.Local)
			stack = append(stack, strings.ToLower(t.Name.Local))
			for _, attr := range t.Attr {
				name := strings.ToLower(attr.Name.Local)
				if name == "href" || name == "xpointer" || name == "src" {
					d.Links = append(d.Links, Link{URL: attr.Value, Type: linkType(attr.Value)})
				} else {
					// Attribute values index under the element's scope.
					if scoped != nil {
						scoped[strings.ToLower(t.Name.Local)] += attr.Value + " "
					}
					sb.WriteString(attr.Value)
					sb.WriteByte(' ')
				}
			}
		case xml.EndElement:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		case xml.CharData:
			sb.Write(t)
			sb.WriteByte(' ')
			if scoped != nil && len(stack) > 0 {
				scoped[stack[len(stack)-1]] += string(t) + " "
			}
		}
	}
	// Footnote 2: XML tags are indexed simply as normal terms.
	for _, tag := range tags {
		sb.WriteString(tag)
		sb.WriteByte(' ')
	}
	d.Text = strings.TrimSpace(sb.String())
}

// linkType derives the type from the URL extension.
func linkType(url string) string {
	i := strings.LastIndexByte(url, '.')
	if i < 0 || i == len(url)-1 {
		return ""
	}
	ext := strings.ToLower(url[i+1:])
	if j := strings.IndexAny(ext, "?#"); j >= 0 {
		ext = ext[:j]
	}
	return ext
}

// HashID returns the stable content-derived id for a raw XML snippet.
func HashID(raw string) string {
	sum := sha256.Sum256([]byte(raw))
	return hex.EncodeToString(sum[:16])
}

// IndexableText returns the document's own text plus the content of every
// linked file of known type, fetched through r (nil r skips links).
func (d *Document) IndexableText(r Resolver) string {
	if r == nil || len(d.Links) == 0 {
		return d.Text
	}
	var sb strings.Builder
	sb.WriteString(d.Text)
	for _, l := range d.Links {
		if !l.KnownType() {
			continue
		}
		content, err := r.Resolve(l.URL)
		if err != nil {
			continue // unresolvable link: index what we have
		}
		sb.WriteByte(' ')
		sb.WriteString(content)
	}
	return sb.String()
}

// Terms runs the text pipeline over the document's indexable text.
func (d *Document) Terms(r Resolver) []string {
	return text.Terms(d.IndexableText(r))
}

// TermFreqs returns the term-frequency map for the document.
func (d *Document) TermFreqs(r Resolver) map[string]int {
	return d.TermFreqsWith(r, nil, nil)
}

// TermFreqsWith is TermFreqs with a caller-supplied analyzer and
// destination map, the batch-ingest form: a worker reuses one analyzer
// (token buffer + term interning) and pooled maps across documents.
// Both may be nil.
func (d *Document) TermFreqsWith(r Resolver, a *text.Analyzer, dst map[string]int) map[string]int {
	if a == nil {
		a = &text.Analyzer{}
	}
	return a.TermFreqs(d.IndexableText(r), dst)
}

// StructuredTermFreqs returns the term-frequency map including scoped
// "tag:term" entries for every element's own text — the footnote 2
// extension. Bare terms are always present, so structured indexing is a
// strict superset of flat indexing (plain queries behave identically).
func (d *Document) StructuredTermFreqs(r Resolver) map[string]int {
	return d.StructuredTermFreqsWith(r, nil, nil)
}

// StructuredTermFreqsWith is StructuredTermFreqs with a caller-supplied
// analyzer and destination map (both may be nil).
func (d *Document) StructuredTermFreqsWith(r Resolver, a *text.Analyzer, dst map[string]int) map[string]int {
	if a == nil {
		a = &text.Analyzer{}
	}
	freqs := a.TermFreqs(d.IndexableText(r), dst)
	for tag, txt := range d.Scoped() {
		for _, term := range a.Terms(txt, nil) {
			// Terms from the pipeline are already stemmed; scope keys
			// are already lowercase — compose directly so the form
			// matches what text.ParseQuery produces for "tag:word".
			freqs[tag+":"+term]++
		}
	}
	return freqs
}

// Store is a peer's local data store of published documents: each
// document's raw XML under its id, the one resident copy of its body. It is
// thread-safe.
type Store struct {
	mu   sync.RWMutex
	docs map[string]string
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{docs: make(map[string]string)} }

// Put stores the raw XML of document id, returning false if it was
// already present (publishing is idempotent on content).
func (s *Store) Put(id, raw string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[id]; ok {
		return false
	}
	s.docs[id] = raw
	return true
}

// Get retrieves a document's raw XML by id.
func (s *Store) Get(id string) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	raw, ok := s.docs[id]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return raw, nil
}

// Delete removes a document, reporting whether it was present.
func (s *Store) Delete(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[id]; !ok {
		return false
	}
	delete(s.docs, id)
	return true
}

// Len returns the number of stored documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// IDs returns the sorted ids of all stored documents.
func (s *Store) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for id := range s.docs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// All returns the raw XML of every stored document (order unspecified).
func (s *Store) All() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for _, raw := range s.docs {
		out = append(out, raw)
	}
	return out
}
