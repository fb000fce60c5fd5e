package search

import "planetp/internal/directory"

// MergedView implements the storage/accuracy trade of Section 2,
// advantage (3): a memory-constrained peer "may choose to combine the
// filters of several peers to save space; the trade-off is that it must
// now contact this set of peers whenever a query hits on this combined
// filter".
//
// MergedView wraps a base FilterView and partitions its peers into
// groups. Contains(id, term) answers for the whole group containing id —
// true if ANY member's filter may contain the term — so ranking and
// candidate selection degrade gracefully: a hit pulls in the entire
// group, never loses a true candidate (no false negatives), and costs
// 1/groupSize of the filter storage on a device that actually merges the
// underlying bitmaps.
type MergedView struct {
	base FilterView
	// group maps a peer to its group's representative member list.
	group map[directory.PeerID][]directory.PeerID
	peers []directory.PeerID
}

// NewMergedView partitions base's peers into contiguous groups of
// groupSize (>=1).
func NewMergedView(base FilterView, groupSize int) *MergedView {
	if groupSize < 1 {
		groupSize = 1
	}
	peers := base.Peers()
	mv := &MergedView{
		base:  base,
		group: make(map[directory.PeerID][]directory.PeerID, len(peers)),
		peers: peers,
	}
	for i := 0; i < len(peers); i += groupSize {
		end := i + groupSize
		if end > len(peers) {
			end = len(peers)
		}
		members := peers[i:end]
		for _, id := range members {
			mv.group[id] = members
		}
	}
	return mv
}

// Peers implements FilterView.
func (mv *MergedView) Peers() []directory.PeerID { return mv.peers }

// Contains implements FilterView with group semantics: a term "may be at"
// peer id if any member of id's group may have it. This is exactly what
// querying a merged (OR-ed) Bloom filter of the group would answer.
func (mv *MergedView) Contains(id directory.PeerID, term string) bool {
	for _, member := range mv.group[id] {
		if mv.base.Contains(member, term) {
			return true
		}
	}
	return false
}

// Groups returns the number of groups (the merged-filter storage cost in
// units of one filter).
func (mv *MergedView) Groups() int {
	seen := 0
	prev := directory.None
	for _, id := range mv.peers {
		g := mv.group[id]
		if len(g) > 0 && g[0] != prev {
			seen++
			prev = g[0]
		}
	}
	return seen
}
