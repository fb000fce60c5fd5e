package gossipsim

import (
	"time"

	"planetp/internal/faultnet"
)

// FaultResult is the outcome of one convergence-under-faults run.
type FaultResult struct {
	// Converged reports whether every peer learned the update within
	// the horizon.
	Converged bool
	// Time is time-to-convergence (meaningful when Converged).
	Time time.Duration
	// ScheduleHash fingerprints the exact fault schedule that was
	// injected; equal hashes across runs mean byte-identical faults.
	ScheduleHash uint64
	// Digests holds every peer's final directory digest, indexed by
	// peer id; DigestsEqual reports they all match (identical replicas).
	Digests      []uint64
	DigestsEqual bool
	// Faults are the injected-fault totals.
	Faults faultnet.Counts
}

// ConvergenceUnderFaults runs the fault-tolerance experiment: a converged
// community of n peers, one peer publishes a 1000-key update, and the
// update must reach every replica through the spec's faults. Both seeds
// fully determine the run, so equal (sc, n, spec, seed) inputs reproduce
// byte-identical fault schedules and convergence times.
func ConvergenceUnderFaults(sc Scenario, n int, spec FaultSpec, seed int64) FaultResult {
	r := newRun(sc, n, n, seed)
	r.inject(spec)
	r.publish(r.s.Peers()[0], Diff1000Keys, "update")

	res := FaultResult{
		Converged:    r.converge(patience, nil),
		Time:         -1,
		ScheduleHash: r.plan.ScheduleHash(),
		Faults:       r.plan.Counts(),
		DigestsEqual: true,
	}
	if res.Converged {
		res.Time = r.s.Now() - r.start
	}
	res.Digests = make([]uint64, n)
	for i, p := range r.s.Peers() {
		res.Digests[i] = p.Node.Directory().Digest()
		if res.Digests[i] != res.Digests[0] {
			res.DigestsEqual = false
		}
	}
	return res
}
