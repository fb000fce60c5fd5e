package core

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkGossipPayloadsLive measures what Bloom-filter chains cost a live
// community larger than a handful: N peers on loopback TCP with the test
// gossip intervals, four of them each publishing one batch of 16 documents
// per iteration, 20 ms apart. It reports the gossip bytes TCP carried per
// published batch, the share of records sent as diffs (segments, not the
// full chain), rejected chains per batch and held-table evictions. Run it
// with a fixed count:
//
//	go test -run '^$' -bench GossipPayloadsLive -benchtime 200x ./internal/core/
func BenchmarkGossipPayloadsLive(b *testing.B) {
	for _, n := range []int{4, 16, 32, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			peers := community(b, n, 0)
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
				known := true
				for _, p := range peers {
					known = known && p.dir.NumKnown() == n
				}
				if known {
					break
				}
				if time.Now().After(deadline) {
					b.Fatal("the community never converged")
				}
			}
			sum := func(name string) (s float64) {
				for _, p := range peers {
					s += float64(p.reg.Snapshot().Get(name))
				}
				return s
			}
			names := []string{"transport_tx_bytes_gossip", "gossip_diff_payloads_sent_total",
				"gossip_full_payloads_sent_total", "gossip_diff_rejects_total", "gossip_held_evictions_total"}
			before := make([]float64, len(names))
			for i, name := range names {
				before[i] = sum(name)
			}
			batch := make([]string, 16)
			doc := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range peers[:4] {
					for j := range batch {
						batch[j] = benchDoc(doc)
						doc++
					}
					if _, err := p.PublishBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
				time.Sleep(20 * time.Millisecond)
			}
			b.StopTimer()
			time.Sleep(time.Second) // the last rumors spread
			d := make([]float64, len(names))
			for i, name := range names {
				d[i] = sum(name) - before[i]
			}
			batches := float64(4 * b.N)
			b.ReportMetric(d[0]/batches, "gossip-B/batch")
			if sent := d[1] + d[2]; sent > 0 {
				b.ReportMetric(d[1]/sent, "diff-share")
			}
			b.ReportMetric(d[3]/batches, "rejects/batch")
			b.ReportMetric(d[4], "held-evictions")
		})
	}
}
