package gossipsim

import (
	"fmt"
	"time"

	"planetp/internal/directory"
	"planetp/internal/faultnet"
	"planetp/internal/store"
)

// RestartResult is the outcome of one crash/restart-under-faults run.
type RestartResult struct {
	// Converged reports whether every surviving peer learned the
	// restarted incarnation's record within the horizon.
	Converged bool
	// Time is restart-to-convergence (meaningful when Converged).
	Time time.Duration
	// OldVer is the version the victim gossiped before the crash; NewVer
	// is what the restarted incarnation announced. NewVer must supersede
	// OldVer or the community ignores the restart.
	OldVer, NewVer directory.Version
	// RecoveredOps is how many WAL operations survived the crash and were
	// replayed; TruncatedRecords counts torn tails recovery dropped.
	RecoveredOps     int
	TruncatedRecords int
	// StaleRecords counts peers still holding a pre-restart version of
	// the victim's record at the end of the run (must be zero when
	// Converged — epoch supersession worked community-wide).
	StaleRecords int
	// ScheduleHash fingerprints the injected network-fault schedule;
	// Faults are the injected-fault totals.
	ScheduleHash uint64
	Faults       faultnet.Counts
}

// restartUpdates is how many durable updates the victim publishes before
// the crash; one more is published whose WAL append tears mid-write.
const restartUpdates = 5

// RestartUnderFaults runs the crash/restart experiment: a converged
// community of n peers under the spec's network faults; peer 1 (the
// victim) publishes a series of updates, each appended to a write-ahead
// log on a fault-injected in-memory disk. Mid-gossip the victim's disk
// tears a record and the process dies (off-line + unsynced page cache
// lost). After the community has gossiped around the corpse for a while,
// the victim recovers from the surviving bytes, restarts with a fresh
// node at an epoch strictly past everything the dead incarnation could
// have announced, and rejoins through one bootstrap contact. The run
// converges when every surviving peer holds the new incarnation's record
// — and zero stale pre-crash records remain anywhere.
//
// Both seeds fully determine the run (network schedule, disk tear
// lengths, page-cache loss), so equal inputs reproduce it exactly.
func RestartUnderFaults(sc Scenario, n int, spec FaultSpec, seed int64) RestartResult {
	r := newRun(sc, n, n, seed)
	r.inject(spec)

	// The victim's durable store: a WAL on a fault-injected in-memory
	// disk, fsync-on-commit.
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, seed)
	st, _, err := store.Open(store.Options{Dir: "data", FS: ffs})
	if err != nil {
		panic(fmt.Sprintf("gossipsim: opening victim store: %v", err))
	}

	victim := r.s.Peers()[1]
	logUpdate := func(i int) error {
		r.publish(victim, Diff1000Keys, "")
		ver := victim.Node.SelfRecord().Ver
		_, err := st.Append(store.Op{
			Kind: store.OpPublish, Data: fmt.Sprintf("doc-%d", i),
			Epoch: ver.Epoch, Seq: ver.Seq,
		})
		return err
	}
	for i := 0; i < restartUpdates; i++ {
		r.at(time.Duration(i+1)*sc.Interval, func() {
			if err := logUpdate(i); err != nil {
				panic(fmt.Sprintf("gossipsim: pre-crash append: %v", err))
			}
		})
	}

	// The crash: mid-gossip, one more update's WAL append tears partway
	// through the record and the process dies. Unsynced page-cache bytes
	// are (partially, seeded) lost.
	var oldVer directory.Version
	crashAt := time.Duration(restartUpdates+1)*sc.Interval + sc.Interval/2
	r.at(crashAt, func() {
		ffs.CrashAt(ffs.Ops(), store.CrashTorn)
		if err := logUpdate(restartUpdates); err == nil {
			panic("gossipsim: torn append reported success")
		}
		oldVer = victim.Node.SelfRecord().Ver
		victim.GoOffline()
		mem.Crash(seed ^ 0x1db3)
	})

	// Let the community gossip around the corpse for a while (failed
	// contacts mark the victim off-line; suspicion does its work).
	r.s.Run(r.start + crashAt + 10*sc.Interval)

	// Recovery: reopen the surviving bytes on the bare disk, exactly as a
	// restarted process would.
	st2, rec, err := store.Open(store.Options{Dir: "data", FS: mem})
	if err != nil {
		panic(fmt.Sprintf("gossipsim: recovery: %v", err))
	}
	st2.Close()
	newEpoch := rec.Epoch + 1

	// Restart: fresh node, fresh directory, epoch past the dead
	// incarnation, one bootstrap contact. The whole recovered filter is
	// news to the community.
	victim.Restart(newEpoch, Full20000Keys, Full20000Keys, 0)
	restarted := r.s.Now()
	newVer := victim.Node.SelfRecord().Ver
	r.watch(victim, "restart", nil)
	converged := r.converge(patience, nil)

	res := RestartResult{
		Converged:        converged,
		Time:             -1,
		OldVer:           oldVer,
		NewVer:           newVer,
		RecoveredOps:     len(rec.Ops),
		TruncatedRecords: rec.TruncatedRecords,
		ScheduleHash:     r.plan.ScheduleHash(),
		Faults:           r.plan.Counts(),
	}
	if converged {
		res.Time = r.s.Now() - restarted
	}
	for _, p := range r.s.Peers() {
		if p.ID == victim.ID || !p.Online() {
			continue
		}
		if p.Node.Directory().VersionOf(victim.ID).Epoch < newEpoch {
			res.StaleRecords++
		}
	}
	return res
}
