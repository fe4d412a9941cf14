package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/family"
	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/proc"
	"repro/internal/reach"
	"repro/internal/structural"
	"repro/internal/verify"
	"repro/internal/zdd"
)

// Core net types, aliased from the internal implementation so users of the
// public API can build and inspect nets directly.
type (
	// Net is an immutable safe Petri net ⟨P, T, F, m₀⟩.
	Net = petri.Net
	// Builder accumulates places, transitions, arcs and the initial
	// marking, and produces an immutable Net.
	Builder = petri.Builder
	// Place identifies a place by dense index.
	Place = petri.Place
	// Trans identifies a transition by dense index.
	Trans = petri.Trans
	// Marking is a token configuration (a place bitset).
	Marking = petri.Marking
)

// NewNet returns a builder for a net with the given name.
func NewNet(name string) *Builder { return petri.NewBuilder(name) }

// ParseNet reads a net in the .pn textual format.
func ParseNet(r io.Reader) (*Net, error) { return pnio.Parse(r) }

// WriteNet writes a net in the .pn textual format.
func WriteNet(w io.Writer, n *Net) error { return pnio.Write(w, n) }

// NetDOT renders the net structure as a Graphviz digraph.
func NetDOT(w io.Writer, n *Net) error { return pnio.NetDOT(w, n) }

// CompileSpec compiles a process-algebra specification (the front-end of
// the paper's reference [16]) into a safe Petri net. Processes are
// composed in parallel; !c / ?c pairs become rendezvous transitions.
//
//	net, err := repro.CompileSpec(`
//	    proc producer = *( make ; !data )
//	    proc consumer = *( ?data ; use )
//	    system producer consumer
//	`)
func CompileSpec(src string) (*Net, error) {
	spec, err := proc.Parse(src)
	if err != nil {
		return nil, err
	}
	return proc.Compile(spec)
}

// Verification façade.
type (
	// Engine selects the analysis technique.
	Engine = verify.Engine
	// Options configures a check.
	Options = verify.Options
	// Report is the engine-comparable outcome of a check.
	Report = verify.Report
)

// The four analysis engines of the paper's comparison, plus the explicit
// GPO variant.
const (
	Exhaustive   = verify.Exhaustive
	PartialOrder = verify.PartialOrder
	Symbolic     = verify.Symbolic
	GPO          = verify.GPO
	GPOExplicit  = verify.GPOExplicit
	Unfolding    = verify.Unfolding
)

// CheckDeadlock analyses the net for reachable deadlocks.
func CheckDeadlock(n *Net, opts Options) (*Report, error) {
	return verify.CheckDeadlock(n, opts)
}

// CheckSafety checks whether a marking with all the given places
// simultaneously marked is reachable. The places are a set (order and
// duplicates do not matter; an empty set is an error). For every engine,
// with or without Reduce, the report's witness is a reachable marking of
// n that marks every one of them.
func CheckSafety(n *Net, bad []Place, opts Options) (*Report, error) {
	return verify.CheckSafety(n, bad, opts)
}

// CountStates returns the size of the full reachable state space.
func CountStates(n *Net) (int, error) { return reach.CountStates(n) }

// Liveness computes, over the full reachability graph, whether each
// transition is live (from every reachable marking it can eventually fire
// again). Dead components — a process starved by a protocol bug without a
// total deadlock — show up as non-live transitions.
func Liveness(n *Net) ([]bool, error) {
	res, err := reach.Explore(n, reach.Options{StoreGraph: true})
	if err != nil {
		return nil, err
	}
	return res.Graph.Live(), nil
}

// GPOAnalysis gives direct access to the generalized partial-order engine
// (ZDD-backed) for callers that want the raw statistics: GPN states
// explored, multiple/single firing counts and the peak valid-set count.
type GPOAnalysis = core.Result

// AnalyzeGPO runs the generalized partial-order analysis and returns its
// raw result. stopAtDeadlock halts at the first deadlock possibility.
func AnalyzeGPO(n *Net, stopAtDeadlock bool) (*GPOAnalysis, error) {
	e, err := core.NewEngine[zdd.Node](n, zdd.NewAlgebra(n.NumTrans()))
	if err != nil {
		return nil, err
	}
	res, _, err := e.Analyze(core.Options{StopAtDeadlock: stopAtDeadlock})
	return res, err
}

// AnalyzeGPOExplicit is AnalyzeGPO with the explicit (uncompressed) family
// representation; identical results, practical only for small nets.
func AnalyzeGPOExplicit(n *Net, stopAtDeadlock bool) (*GPOAnalysis, error) {
	e, err := core.NewEngine[*family.Family](n, family.NewAlgebra(n.NumTrans()))
	if err != nil {
		return nil, err
	}
	res, _, err := e.Analyze(core.Options{StopAtDeadlock: stopAtDeadlock})
	return res, err
}

// Structural analysis.

// PInvariants computes a generating set of nonnegative place invariants.
func PInvariants(n *Net, maxRows int) ([][]int, error) {
	return structural.PInvariants(n, maxRows)
}

// ProveSafe attempts a structural safeness proof; it returns the places
// not covered by a one-token invariant (empty means provably safe).
func ProveSafe(n *Net) ([]Place, error) {
	invs, err := structural.PInvariants(n, 0)
	if err != nil {
		return nil, err
	}
	return structural.ProveSafe(n, invs), nil
}

// DeadlockSiphon explains a dead marking structurally: the maximal empty
// siphon of the witness.
func DeadlockSiphon(n *Net, dead Marking) []Place {
	return structural.DeadlockSiphon(n, dead)
}

// Benchmark model generators (the nets of the paper's Table 1 and
// figures).

// NSDP builds the non-serialized dining philosophers net (Table 1).
func NSDP(n int) *Net { return models.NSDP(n) }

// ReadersWriters builds the RW(n) net (Table 1).
func ReadersWriters(n int) *Net { return models.ReadersWriters(n) }

// ArbiterTree builds the ASAT(n) asynchronous arbiter tree (Table 1).
func ArbiterTree(n int) *Net { return models.ArbiterTree(n) }

// Overtake builds the OVER(n) protocol net (Table 1).
func Overtake(n int) *Net { return models.Overtake(n) }

// IndependentTransitions builds the paper's Figure 1 net generalized to n
// concurrent transitions.
func IndependentTransitions(n int) *Net { return models.Fig1(n) }

// ConflictPairs builds the paper's Figure 2 net: n concurrently marked
// conflict places.
func ConflictPairs(n int) *Net { return models.Fig2(n) }
