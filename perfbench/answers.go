package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/verify"
)

// Answer is the known outcome of one check: the verdict (deadlock
// reachable, or bad combination reachable) and, where the count does
// not depend on the engine's exploration order or is pinned by the
// repository's tests, the state count.
type Answer struct {
	Verdict bool `json:"verdict"`
	// States is the expected Report.States (0 = not listed). Source
	// says where it comes from: "exhaustive" (the full reachable set,
	// which the exhaustive and symbolic engines both report),
	// "exhaustive+reduce" (the exhaustive count on the reduced net) or
	// "pinned" (GPO per TestPinnedTable1 in internal/core).
	States int    `json:"states,omitempty"`
	Source string `json:"source,omitempty"`
}

// paperRow cross-checks one Table 1 row's exhaustive state count
// against the paper's "States" column.
type paperRow struct {
	Inst        string  `json:"instance"`
	States      int     `json:"states"`
	PaperStates float64 `json:"paper_states"`
	Match       bool    `json:"match"`
}

type answerFile struct {
	Paper   []paperRow        `json:"paper_cross_check"`
	Answers map[string]Answer `json:"answers"`
}

//go:embed answers.json
var answersJSON []byte

func loadAnswers() (map[string]Answer, error) {
	var f answerFile
	if err := json.Unmarshal(answersJSON, &f); err != nil {
		return nil, fmt.Errorf("answers.json: %w", err)
	}
	return f.Answers, nil
}

// paperStates is Table 1's "States" column.
var paperStates = map[string]float64{
	"nsdp(2)": 18, "nsdp(4)": 322, "nsdp(6)": 5778, "nsdp(8)": 103682, "nsdp(10)": 1.86e6,
	"asat(2)": 88, "asat(4)": 7822, "asat(8)": 1.58e6,
	"over(2)": 65, "over(3)": 519, "over(4)": 4175, "over(5)": 33460,
	"rw(6)": 72, "rw(9)": 523, "rw(12)": 4110, "rw(15)": 29642,
}

// pinnedGPO is the GPO state count of each Table 1 deadlock check, as
// pinned by TestPinnedTable1 for both family algebras.
var pinnedGPO = map[string]int{
	"nsdp(2)": 3, "nsdp(4)": 3, "nsdp(6)": 3, "nsdp(8)": 3, "nsdp(10)": 3,
	"asat(2)": 10, "asat(4)": 14, "asat(8)": 18,
	"over(2)": 8, "over(3)": 8, "over(4)": 8, "over(5)": 8,
	"rw(6)": 2, "rw(9)": 2, "rw(12)": 2, "rw(15)": 2,
}

// allChecks lists every check any workload can issue, each answer key
// once, with every bad set of the pools the workloads draw from.
func allChecks() []Check {
	seen := map[string]bool{}
	var out []Check
	add := func(c Check) {
		c.Workers, c.Cluster, c.Async = 0, false, false
		if k := c.AnswerKey(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	expand := func(c Check) {
		if c.Kind != "safety" {
			add(c)
			return
		}
		reach, unreach := badPools(c.Inst)
		for _, b := range append(reach, unreach...) {
			c.Bad = b
			add(c)
		}
	}
	r := newRand(0, "answers")
	for _, it := range gpoTable1Cycle(r) {
		expand(it.Check)
	}
	for _, c := range explicitChecks(2) {
		add(c)
	}
	for _, it := range clusterCycle(r, 0, 0) {
		expand(it.Check)
	}
	for _, it := range serveDeck(r) {
		expand(it.Check)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AnswerKey() < out[j].AnswerKey() })
	return out
}

// derive computes the known-answer table: one exhaustive exploration
// per instance gives its deadlock verdict, its reachable-state count
// and, through a predicate that records which pooled bad sets a
// reachable marking covers, every safety verdict. Reduced counts come
// from the exhaustive engine on the reduced net; GPO counts are the
// pinned ones. Every check is then run once on its own engine and must
// agree; a disagreement fails the derivation.
func derive(path string) error {
	checks := allChecks()
	type instFacts struct {
		deadlock bool
		states   int
		covered  map[string]bool
	}
	facts := map[Inst]*instFacts{}
	var paper []paperRow
	for _, c := range checks {
		if facts[c.Inst] != nil {
			continue
		}
		n, err := c.Build()
		if err != nil {
			return err
		}
		reachable, unreachable := badPools(c.Inst)
		pool := append(reachable, unreachable...)
		sets := make([][]petri.Place, len(pool))
		for i, b := range pool {
			if sets[i], err = placesOf(n, b); err != nil {
				return fmt.Errorf("%s: %w", c.Inst, err)
			}
		}
		f := &instFacts{covered: map[string]bool{}}
		res, err := reach.Explore(n, reach.Options{Bad: func(m petri.Marking) bool {
			for i, s := range sets {
				if covers(m, s) {
					f.covered[fmt.Sprint(pool[i])] = true
				}
			}
			return false
		}})
		if err != nil {
			return fmt.Errorf("%s: %w", c.Inst, err)
		}
		f.deadlock, f.states = res.Deadlock, res.States
		for i, b := range pool {
			if got, want := f.covered[fmt.Sprint(b)], i < len(reachable); got != want {
				return fmt.Errorf("%s: bad set %v reachable=%v, pool says %v", c.Inst, b, got, want)
			}
		}
		facts[c.Inst] = f
		if ps, ok := paperStates[c.Inst.String()]; ok {
			paper = append(paper, paperRow{Inst: c.Inst.String(), States: f.states, PaperStates: ps,
				Match: float64(f.states) == ps || (ps >= 1e6 && math.Abs(float64(f.states)-ps) < 0.01e6)})
		}
		fmt.Fprintf(os.Stderr, "derive: %s %d states, deadlock=%v\n", c.Inst, f.states, f.deadlock)
	}
	sort.Slice(paper, func(i, j int) bool { return paper[i].Inst < paper[j].Inst })

	answers := map[string]Answer{}
	for _, c := range checks {
		f := facts[c.Inst]
		a := Answer{Verdict: f.deadlock}
		if c.Kind == "safety" {
			a.Verdict = f.covered[fmt.Sprint(c.Bad)]
		}
		switch {
		case c.Reduce && c.Engine == "exhaustive":
			_, rep, err := buildAndVerify(c)
			if err != nil {
				return err
			}
			a.States, a.Source = rep.States, "exhaustive+reduce"
		case c.Reduce:
		case c.Engine == "exhaustive" || c.Engine == "symbolic":
			a.States, a.Source = f.states, "exhaustive"
		case (c.Engine == "gpo" || c.Engine == "gpo-explicit") && c.Kind == "deadlock":
			if s, ok := pinnedGPO[c.Inst.String()]; ok {
				a.States, a.Source = s, "pinned"
			}
		}
		answers[c.AnswerKey()] = a
	}
	for _, c := range checks {
		_, rep, err := buildAndVerify(c)
		if err != nil {
			return fmt.Errorf("%s: %w", c.AnswerKey(), err)
		}
		if err := judge(c, answers[c.AnswerKey()], rep.Deadlock, rep.States); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "derive: %s ok (%v)\n", c.AnswerKey(), rep.Elapsed)
	}
	b, err := json.MarshalIndent(answerFile{Paper: paper, Answers: answers}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func placesOf(n *petri.Net, names []string) ([]petri.Place, error) {
	ps := make([]petri.Place, len(names))
	for i, s := range names {
		p, ok := n.PlaceByName(s)
		if !ok {
			return nil, fmt.Errorf("no place %q", s)
		}
		ps[i] = p
	}
	return ps, nil
}

func covers(m petri.Marking, ps []petri.Place) bool {
	for _, p := range ps {
		if !m.Has(p) {
			return false
		}
	}
	return true
}

func verifyOptions(c Check) (verify.Options, error) {
	e, err := verify.ParseEngine(c.Engine)
	if err != nil {
		return verify.Options{}, err
	}
	return verify.Options{Engine: e, Workers: c.Workers, Proviso: c.Proviso, Reduce: c.Reduce}, nil
}

// Failure classes. A wrong verdict or state count makes the run
// incorrect; an invalid witness or a lost request is a failed check.
const (
	failVerdict   = "verdict"
	failStates    = "states"
	failWitness   = "witness"
	failTransport = "transport"
	failStatus    = "status"
	failLost      = "lost"
)

// checkError is a failed check with its class.
type checkError struct {
	class string
	msg   string
}

func (e *checkError) Error() string { return e.class + ": " + e.msg }

func failf(class, format string, args ...any) error {
	return &checkError{class: class, msg: fmt.Sprintf(format, args...)}
}

// judge compares a verdict and state count with the known answer.
func judge(c Check, a Answer, verdict bool, states int) error {
	if verdict != a.Verdict {
		return failf(failVerdict, "%s: verdict %v, known answer %v", c.AnswerKey(), verdict, a.Verdict)
	}
	if a.States != 0 && states != a.States {
		return failf(failStates, "%s: %d states, known answer %d", c.AnswerKey(), states, a.States)
	}
	return nil
}

// checkWitness validates a witness on the input net: every place index
// is in range, a deadlock witness enables no transition and a safety
// witness marks every bad place. A positive verdict needs a witness; a
// negative one has none.
func checkWitness(n *petri.Net, c Check, verdict bool, w []petri.Place) error {
	if !verdict {
		if len(w) > 0 {
			return failf(failWitness, "%s: witness on a negative verdict", c.AnswerKey())
		}
		return nil
	}
	if w == nil {
		return failf(failWitness, "%s: positive verdict without a witness", c.AnswerKey())
	}
	m := n.EmptyMarking()
	for _, p := range w {
		if int(p) < 0 || int(p) >= n.NumPlaces() {
			return failf(failWitness, "%s: witness place index %d out of range [0,%d)", c.AnswerKey(), p, n.NumPlaces())
		}
		m.Set(p)
	}
	if c.Kind == "safety" {
		bad, err := placesOf(n, c.Bad)
		if err != nil {
			return err
		}
		if !covers(m, bad) {
			return failf(failWitness, "%s: witness does not mark every bad place", c.AnswerKey())
		}
		return nil
	}
	if !n.IsDeadlock(m) {
		return failf(failWitness, "%s: deadlock witness enables a transition", c.AnswerKey())
	}
	return nil
}
