// Package verify is the unified façade over the four analysis engines the
// paper compares: exhaustive explicit reachability, stubborn-set
// partial-order reduction, OBDD-based symbolic reachability, and the
// paper's generalized partial-order analysis (with either the explicit or
// the ZDD family representation). It runs deadlock and safety checks and
// returns engine-comparable statistics — the columns of the paper's
// Table 1.
package verify

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/family"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/structural/reduce"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
	"repro/internal/unfold"
	"repro/internal/zdd"
)

// Engine selects the analysis technique.
type Engine int

const (
	// Exhaustive enumerates the complete reachability graph (Section 2.2;
	// the "States" column).
	Exhaustive Engine = iota
	// PartialOrder uses stubborn-set reduction (Section 2.3; SPIN+PO).
	PartialOrder
	// Symbolic uses OBDD-based reachability (Section 2.4; SMV).
	Symbolic
	// GPO is the paper's generalized partial-order analysis with the ZDD
	// family representation (Section 3).
	GPO
	// GPOExplicit is GPO with the explicit family representation; it
	// computes identical results and is practical only for small nets.
	GPOExplicit
	// Unfolding builds a McMillan complete finite prefix and checks
	// deadlock on it (our extension: the other classical partial-order
	// technique of the paper's era, cf. its reference [13]).
	Unfolding
)

// engineNames are the engines' short display names, indexed by Engine.
var engineNames = [...]string{
	Exhaustive:   "exhaustive",
	PartialOrder: "partial-order",
	Symbolic:     "symbolic",
	GPO:          "gpo",
	GPOExplicit:  "gpo-explicit",
	Unfolding:    "unfolding",
}

// String returns the engine's short display name.
func (e Engine) String() string {
	if e < 0 || int(e) >= len(engineNames) {
		return fmt.Sprintf("Engine(%d)", int(e))
	}
	return engineNames[e]
}

// ParseEngine maps a name (as printed by String) back to an Engine.
func ParseEngine(s string) (Engine, error) {
	for e, name := range engineNames {
		if name == s {
			return Engine(e), nil
		}
	}
	return 0, fmt.Errorf("verify: unknown engine %q", s)
}

// Options configures a check.
type Options struct {
	Engine Engine
	// Ctx, if non-nil, is threaded to the selected engine, which polls it
	// cooperatively: once it is cancelled (deadline exceeded, client
	// disconnect) the exploration stops within a bounded number of steps
	// and the check returns a partial Report with Aborted set instead of
	// an error. A nil Ctx never stops anything and costs one predictable
	// branch per unit of work.
	Ctx context.Context
	// StopAtFirst halts at the first deadlock (or bad state) found.
	StopAtFirst bool
	// MaxStates bounds explicit searches; MaxNodes bounds symbolic ones.
	MaxStates int
	MaxNodes  int
	// Workers, when > 0, runs the exhaustive engine's BFS with that many
	// parallel workers (see reach.Options.Workers); results are identical
	// to the sequential search. Other engines ignore it.
	Workers int
	// Proviso applies the cycle proviso in the partial-order engine.
	Proviso bool
	// Reduce applies the structural reduction pre-pass
	// (internal/structural/reduce) before the selected engine: the net is
	// shrunk by sound, verdict-preserving rules and the engine explores
	// the reduced net; verdict and witness are mapped back to the input
	// net via the reduction certificate. Result-determining (the explored
	// state counts change), so it participates in RunKey.
	Reduce bool
	// Metrics, if non-nil, is handed to the selected engine, which fills
	// it with its package-prefixed counters, gauges, histograms and spans
	// (see OBSERVABILITY.md). Nil costs nothing.
	Metrics *obs.Registry
	// Progress, if non-nil, is ticked by the selected engine once per
	// unit of work (state, event or iteration).
	Progress *obs.Progress
	// Trace, if non-nil, is handed to the selected engine, which records
	// flight-recorder events on it (states, firings, phase brackets,
	// aborts; see OBSERVABILITY.md "Trace events"). Nil costs nothing.
	Trace *trace.Tracer
	// Explorer, if non-nil, replaces reach.Explore for the Exhaustive
	// engine (other engines ignore it). bad is the sorted, duplicate-free
	// set of safety-check places, nil for deadlock checks; o carries the same options a
	// reach.Explore call would get, including the equivalent Bad
	// predicate. An Explorer must return Results bit-identical to
	// reach.Explore — like Workers, it changes how the answer is
	// computed, never what it is — so it does not participate in RunKey.
	// The cluster explorer (internal/cluster) is the intended value.
	Explorer func(n *petri.Net, bad []petri.Place, o reach.Options) (*reach.Result, error)
	// Ckpt, if non-nil, enables checkpointing on the checkpoint-capable
	// engines (Exhaustive, GPO, GPOExplicit): the Checkpointer is polled
	// at every engine boundary and may save a snapshot or suspend the
	// run (the check then returns a partial Report with Checkpointed
	// set). Other engines reject it with ErrCkptUnsupported. Like
	// Metrics and Trace, checkpointing only observes and suspends — it
	// never changes what an uninterrupted run computes, so it does not
	// participate in RunKey.
	Ckpt *Checkpointer
	// Resume, if non-nil, restores the check from an engine snapshot
	// instead of starting fresh; the snapshot's engine must match
	// Options.Engine (for safety checks on monitoring engines it is a
	// snapshot of the deterministic monitored net). The resumed run's
	// Report is bit-identical to the uninterrupted run's.
	Resume *EngineSnapshot
}

// Report is the engine-comparable outcome of a check.
type Report struct {
	Net      string
	Engine   Engine
	Deadlock bool // or "bad state reachable" for safety checks
	// Witness is one marking of the input net, nil if none or not
	// tracked. A deadlock witness is a dead reachable marking; a safety
	// witness is a reachable marking that marks every bad place. This
	// holds for every engine, with or without Reduce.
	Witness  petri.Marking
	States   int     // states explored (GPN states for GPO engines)
	PeakBDD  int     // symbolic engine only: peak BDD nodes
	PeakSets float64 // GPO engines only: largest |r|
	Elapsed  time.Duration
	Complete bool
	// Aborted marks a check stopped by Options.Ctx: the statistics are a
	// partial account of the exploration up to the cancellation point and
	// the verdict fields (Deadlock, Witness) are not meaningful.
	Aborted bool
	// Checkpointed marks a check suspended cleanly by Options.Ckpt
	// (CkptStop): a snapshot was saved at the stop boundary and the
	// statistics are a partial account up to it. Like Aborted, the
	// verdict fields are not final.
	Checkpointed bool
	// PlacesRemoved and TransRemoved record what the Options.Reduce
	// pre-pass removed (both zero when reduction is off or nothing
	// applied).
	PlacesRemoved int
	TransRemoved  int
}

// OptionError reports an Options field whose value can never be valid,
// as opposed to runtime failures such as state limits.
type OptionError struct {
	Field  string
	Value  any
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("verify: invalid option %s=%v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the options for values no engine can honor: a negative
// state/node/worker bound or an unknown engine. Zero bounds mean
// "unlimited"/"default" and are valid. CheckDeadlock and CheckSafety
// validate implicitly and return the *OptionError unwrapped, so services
// can distinguish caller mistakes (reject the request) from analysis
// failures (report them).
func (o Options) Validate() error {
	if o.Engine < Exhaustive || o.Engine > Unfolding {
		return &OptionError{Field: "Engine", Value: int(o.Engine), Reason: "unknown engine"}
	}
	if o.MaxStates < 0 {
		return &OptionError{Field: "MaxStates", Value: o.MaxStates, Reason: "must be >= 0 (0 = unlimited)"}
	}
	if o.MaxNodes < 0 {
		return &OptionError{Field: "MaxNodes", Value: o.MaxNodes, Reason: "must be >= 0 (0 = unlimited)"}
	}
	if o.Workers < 0 {
		return &OptionError{Field: "Workers", Value: o.Workers, Reason: "must be >= 0 (0 = sequential)"}
	}
	return nil
}

// validate is the pre-flight step of the check path: Validate, the
// checkpoint gate, and for a safety check (bad non-nil, canonical) a
// non-empty set of places of n.
func (o Options) validate(n *petri.Net, bad []petri.Place) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if bad != nil && (len(bad) == 0 || bad[0] < 0 || int(bad[len(bad)-1]) >= n.NumPlaces()) {
		return &OptionError{Field: "bad", Value: bad, Reason: "want a non-empty set of places of the net"}
	}
	return o.validateCkpt()
}

// canonicalBad returns bad sorted and without duplicates: a safety check
// is about a set of places, so CheckSafety and RunKey both see this one
// form whatever order the caller listed them in. The result is never nil.
func canonicalBad(bad []petri.Place) []petri.Place {
	out := append([]petri.Place{}, bad...)
	slices.Sort(out)
	return slices.Compact(out)
}

// monitors reports whether the engine checks safety as deadlock on the
// monitored net (Section 4 of the paper) rather than by a direct
// predicate on markings.
func (e Engine) monitors() bool { return e != Exhaustive && e != Symbolic }

// CheckDeadlock analyses the net for reachable deadlocks.
func CheckDeadlock(n *petri.Net, opts Options) (*Report, error) { return check(n, nil, opts) }

// CheckSafety checks whether a marking with all places of bad
// simultaneously marked is reachable. bad is a set: order and duplicates
// do not matter, and an empty set or a place n does not have is an
// *OptionError. The exhaustive and symbolic engines check the predicate
// directly; the partial-order, unfolding and generalized engines reduce
// the check to deadlock detection on a monitored net (Section 4 of the
// paper: "the verification of a safety property can always be reduced to
// a check for deadlock"). Either way the witness is a reachable marking
// of n that marks every bad place.
func CheckSafety(n *petri.Net, bad []petri.Place, opts Options) (*Report, error) {
	return check(n, canonicalBad(bad), opts)
}

// check is the one path behind CheckDeadlock (bad nil) and CheckSafety
// (bad canonical): validate, optionally reduce, monitor the safety
// property if the engine needs it, explore, and map the witness back to
// a marking of n.
func check(n *petri.Net, bad []petri.Place, opts Options) (*Report, error) {
	if err := opts.validate(n, bad); err != nil {
		return nil, err
	}
	start := time.Now()
	rep := &Report{Net: n.Name(), Engine: opts.Engine}
	net, rbad := n, bad
	var cert *reduce.Certificate
	if opts.Reduce {
		// Protecting the bad places keeps the property in the reduced net.
		var err error
		if cert, err = reduce.Run(n, reduce.Options{Protect: bad, Metrics: opts.Metrics}); err != nil {
			return nil, err
		}
		if net = cert.Net(); bad != nil {
			if rbad, err = cert.MapPlaces(bad); err != nil {
				return nil, err
			}
		}
		rep.PlacesRemoved, rep.TransRemoved = cert.PlacesRemoved(), cert.TransRemoved()
	}
	explored, trap := net, petri.Place(-1)
	if bad != nil && opts.Engine.monitors() {
		// The bad combination is reachable iff the monitor can fire, after
		// which the run token is gone and the whole net deadlocks with the
		// trap marked.
		var err error
		if explored, trap, err = petri.WithSafetyMonitor(net, rbad); err != nil {
			return nil, err
		}
	}
	if err := explore(explored, rbad, trap, opts, rep); err != nil {
		return nil, err
	}
	if rep.Witness != nil && trap >= 0 {
		rep.Witness = premonitor(net, rbad, rep.Witness)
	}
	if cert != nil {
		rep.Witness = cert.ExpandMarking(rep.Witness)
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// premonitor maps a trap-marked deadlock of the monitored net back to the
// marking the monitor fired from: the places of net as they are, plus the
// bad tokens the monitor consumed. That marking is reachable in net and
// marks every bad place.
func premonitor(net *petri.Net, bad []petri.Place, w petri.Marking) petri.Marking {
	m := net.EmptyMarking()
	for _, p := range w.Places() {
		if int(p) < net.NumPlaces() {
			m.Set(p)
		}
	}
	for _, p := range bad {
		m.Set(p)
	}
	return m
}

// explore runs the selected engine on net and records its verdict and
// statistics in rep. bad is the bad set of a safety check, nil for a
// deadlock check; the direct engines test it on every marking. trap is
// the monitor's trap place when net is the monitored net, -1 otherwise;
// the monitoring engines then count only deadlocks that mark it.
func explore(net *petri.Net, bad []petri.Place, trap petri.Place, opts Options, rep *Report) error {
	var trapped func(petri.Marking) bool // nil: every deadlock counts
	if trap >= 0 {
		trapped = func(m petri.Marking) bool { return m.Has(trap) }
	}
	switch opts.Engine {
	case Exhaustive:
		ro := reach.Options{
			Ctx:       opts.Ctx,
			MaxStates: opts.MaxStates,
			Workers:   opts.Workers,
			Metrics:   opts.Metrics,
			Progress:  opts.Progress,
			Trace:     opts.Trace,
			Ckpt:      opts.Ckpt.reachHook(),
			Resume:    opts.resumeReach(),
		}
		if bad != nil {
			ro.Bad = func(m petri.Marking) bool { return m.HasAll(bad) }
			ro.StopAtBad = opts.StopAtFirst
		} else {
			ro.StopAtDeadlock = opts.StopAtFirst
		}
		run := reach.Explore
		if opts.Explorer != nil {
			run = func(n *petri.Net, o reach.Options) (*reach.Result, error) {
				return opts.Explorer(n, bad, o)
			}
		}
		res, err := run(net, ro)
		if err := settle(rep, err, res != nil); err != nil {
			return err
		}
		rep.States, rep.Complete = res.States, res.Complete
		found, ws := res.Deadlock, res.Deadlocks
		if bad != nil {
			found, ws = res.BadFound, res.BadStates
		}
		rep.Deadlock, rep.Witness = found, first(ws)
	case PartialOrder:
		res, err := stubborn.Explore(net, stubborn.Options{
			Ctx:            opts.Ctx,
			MaxStates:      opts.MaxStates,
			StopAtDeadlock: opts.StopAtFirst && trapped == nil, // a trap-less deadlock must not stop the search
			Proviso:        opts.Proviso,
			Metrics:        opts.Metrics,
			Progress:       opts.Progress,
			Trace:          opts.Trace,
		})
		if err := settle(rep, err, res != nil); err != nil {
			return err
		}
		rep.States, rep.Complete = res.States, res.Complete
		for _, m := range res.Deadlocks {
			if trapped == nil || trapped(m) {
				rep.Deadlock, rep.Witness = true, m
				break
			}
		}
	case Symbolic:
		res, err := symbolic.Analyze(net, symbolic.Options{
			Ctx:      opts.Ctx,
			MaxNodes: opts.MaxNodes,
			Bad:      bad,
			Metrics:  opts.Metrics,
			Progress: opts.Progress,
			Trace:    opts.Trace,
		})
		if err := settle(rep, err, res != nil); err != nil {
			return err
		}
		rep.States, rep.PeakBDD, rep.Complete = int(res.States), res.PeakNodes, res.Complete
		rep.Deadlock, rep.Witness = res.Deadlock, res.Witness
		if bad != nil {
			rep.Deadlock, rep.Witness = res.BadFound, res.BadWitness
		}
	case GPO:
		return exploreGPO[zdd.Node](net, zdd.NewAlgebra(net.NumTrans()), trap, opts, rep)
	case GPOExplicit:
		return exploreGPO[*family.Family](net, family.NewAlgebra(net.NumTrans()), trap, opts, rep)
	case Unfolding:
		px, err := unfold.Build(net, unfold.Options{
			Ctx:       opts.Ctx,
			MaxEvents: opts.MaxStates,
			Metrics:   opts.Metrics,
			Progress:  opts.Progress,
			Trace:     opts.Trace,
		})
		if err := settle(rep, err, px != nil); err != nil {
			return err
		}
		rep.States = len(px.Events)
		// Deadlock checking on a truncated prefix would report phantom
		// deadlocks (events whose successors were never inserted), so an
		// aborted build carries only the size statistics.
		if !rep.Aborted {
			rep.Complete = true
			rep.Witness, rep.Deadlock = px.FindDeadlockWhere(trapped)
		}
	}
	return nil
}

// exploreGPO runs the generalized partial-order engine over either family
// representation.
func exploreGPO[F any](net *petri.Net, alg core.Algebra[F], trap petri.Place, opts Options, rep *Report) error {
	e, err := core.NewEngine(net, alg)
	if err != nil {
		return err
	}
	co := core.Options{
		Ctx:            opts.Ctx,
		MaxStates:      opts.MaxStates,
		StopAtDeadlock: opts.StopAtFirst,
		Metrics:        opts.Metrics,
		Progress:       opts.Progress,
		Trace:          opts.Trace,
		Ckpt:           opts.Ckpt.coreHook(),
		Resume:         opts.resumeCore(),
	}
	if trap >= 0 {
		co.ExpandDead = true // original deadlocks must not cut exploration
		co.TrapFilter, co.TrapPlace = true, trap
	}
	res, _, err := e.Analyze(co)
	if err := settle(rep, err, res != nil); err != nil {
		return err
	}
	rep.Deadlock, rep.States, rep.PeakSets, rep.Complete = res.Deadlock, res.States, res.PeakValid, res.Complete
	rep.Witness = first(res.Witnesses)
	return nil
}

// settle classifies an engine error. A cooperative abort (Options.Ctx)
// or a checkpoint suspension (Options.Ckpt) that left a partial result
// marks the report and is absorbed; anything else fails the check.
func settle(rep *Report, err error, partial bool) error {
	switch {
	case err == nil:
	case partial && ckptStopped(err):
		rep.Checkpointed = true
	case partial && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		rep.Aborted = true
	default:
		return err
	}
	return nil
}

// first returns the first marking of ms, nil if there is none.
func first(ms []petri.Marking) petri.Marking {
	if len(ms) == 0 {
		return nil
	}
	return ms[0]
}
