package core

import (
	"fmt"
	"testing"

	"planetp/internal/store"
)

// benchDoc is the i-th distinct document of the publish benchmarks: a
// unique id token and 24 words of a 4096-word vocabulary, the shape of
// the bench's publish_durable documents.
func benchDoc(i int) string {
	b := []byte(fmt.Sprintf("<doc>d%08d", i))
	for j := 0; j < 24; j++ {
		b = fmt.Appendf(b, " w%05d", (i*31+j*j*7)%4096)
	}
	return string(append(b, "</doc>"...))
}

// BenchmarkPublishBatchDurable publishes batches of 16 fresh documents into
// a MemFS-backed durable peer already holding a corpus of 2 k or 32 k
// documents. What a batch costs should not depend on the corpus under it:
// B/op at 32 k within 1.5× of B/op at 2 k.
func BenchmarkPublishBatchDurable(b *testing.B) {
	for _, corpus := range []int{2 << 10, 32 << 10} {
		b.Run(fmt.Sprintf("corpus=%dk", corpus>>10), func(b *testing.B) {
			p, err := NewPeer(Config{
				ID: 0, Capacity: 4, Gossip: fastGossip(),
				DataDir: "data", Store: store.Options{FS: store.NewMemFS()},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Stop()
			next := 0
			batch := func(n int) []string {
				xmls := make([]string, n)
				for i := range xmls {
					xmls[i] = benchDoc(next)
					next++
				}
				return xmls
			}
			for next < corpus {
				if _, err := p.PublishBatch(batch(256)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.PublishBatch(batch(16)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
