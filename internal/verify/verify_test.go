package verify

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/randnet"
	"repro/internal/reach"
	"repro/internal/unfold"
)

var allEngines = []Engine{Exhaustive, PartialOrder, Symbolic, GPO, GPOExplicit, Unfolding}

// TestEnginesAgreeOnModels runs every engine on every benchmark model and
// checks they all return the same deadlock verdict.
func TestEnginesAgreeOnModels(t *testing.T) {
	nets := []*petri.Net{
		models.NSDP(2), models.NSDP(3),
		models.Fig1(4), models.Fig2(3), models.Fig3(), models.Fig5(), models.Fig7(),
		models.ReadersWriters(3), models.ArbiterTree(4), models.Overtake(2),
	}
	for _, net := range nets {
		want, err := CheckDeadlock(net, Options{Engine: Exhaustive})
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		for _, eng := range allEngines[1:] {
			got, err := CheckDeadlock(net, Options{Engine: eng})
			if err != nil {
				t.Fatalf("%s/%v: %v", net.Name(), eng, err)
			}
			if got.Deadlock != want.Deadlock {
				t.Errorf("%s: %v says deadlock=%v, exhaustive says %v",
					net.Name(), eng, got.Deadlock, want.Deadlock)
			}
		}
	}
}

// TestEnginesAgreeOnRandomNets is the main soundness gauntlet: on hundreds
// of random safe nets, every engine must agree with exhaustive search on
// the deadlock verdict, and every reported witness must be a real
// reachable deadlock.
//
// The generalized engines carry a state cap: on unstructured conflict
// cycles the history decoration of GPN states can exceed the classical
// state count by orders of magnitude (see DESIGN.md), in which case the
// run is counted as a blow-up rather than compared. Soundness is asserted
// for every run that completes; blow-ups must stay a small minority.
func TestEnginesAgreeOnRandomNets(t *testing.T) {
	deadlockCount, blowups, compared := 0, 0, 0
	const trials = 150
	for seed := int64(0); seed < trials; seed++ {
		cfg := randnet.Default(seed)
		cfg.Machines = 2 + int(seed%3)
		cfg.PlacesPer = 2 + int(seed%4)
		cfg.SyncTrans = 1 + int(seed%5)
		cfg.LocalTrans = int(seed % 3)
		net := randnet.Generate(cfg)

		full, err := reach.Explore(net, reach.Options{})
		if err != nil {
			continue // extremely unlikely: generator guarantees safety
		}
		if full.Deadlock {
			deadlockCount++
		}
		realDead := make(map[string]bool)
		for _, m := range full.Deadlocks {
			realDead[m.Key()] = true
		}
		engines := []Engine{PartialOrder, Symbolic, GPO, Unfolding}
		if seed%5 == 0 {
			// The explicit-family GPO recomputes everything the ZDD engine
			// does at a far higher constant; sample it rather than run it
			// on every seed.
			engines = append(engines, GPOExplicit)
		}
		for _, eng := range engines {
			got, err := CheckDeadlock(net, Options{Engine: eng, MaxStates: 8000})
			if err != nil {
				if errors.Is(err, core.ErrStateLimit) || errors.Is(err, unfold.ErrEventLimit) {
					blowups++
					continue
				}
				t.Fatalf("%s/%v: %v", net.Name(), eng, err)
			}
			compared++
			if got.Deadlock != full.Deadlock {
				t.Errorf("%s: %v says deadlock=%v, exhaustive says %v (full states=%d)",
					net.Name(), eng, got.Deadlock, full.Deadlock, full.States)
				continue
			}
			if got.Deadlock && got.Witness != nil && !realDead[got.Witness.Key()] {
				t.Errorf("%s: %v returned witness %s which is not a reachable deadlock",
					net.Name(), eng, got.Witness.String(net))
			}
		}
	}
	if deadlockCount < 10 {
		t.Errorf("only %d/%d random nets deadlock; generator too tame for a meaningful gauntlet",
			deadlockCount, trials)
	}
	if blowups*5 > compared {
		t.Errorf("GPN state blow-ups on %d runs vs %d compared; expected a small minority",
			blowups, compared)
	}
	t.Logf("%d/%d random nets have deadlocks; %d compared runs, %d GPN blow-ups",
		deadlockCount, trials, compared, blowups)
}

// TestSafetyAgreement checks CheckSafety across engines: the NSDP "two
// neighbours eating at once" property (unreachable) and the "philosopher 0
// holds left fork while neighbour holds right" property (reachable).
func TestSafetyAgreement(t *testing.T) {
	net := models.NSDP(3)
	eat0, _ := net.PlaceByName("eat0")
	eat1, _ := net.PlaceByName("eat1")
	hasL0, _ := net.PlaceByName("hasL0")
	hasL1, _ := net.PlaceByName("hasL1")

	cases := []struct {
		name string
		bad  []petri.Place
		want bool
	}{
		{"neighbours-eat", []petri.Place{eat0, eat1}, false},
		{"both-hold-left", []petri.Place{hasL0, hasL1}, true},
	}
	for _, tc := range cases {
		for _, eng := range allEngines {
			rep, err := CheckSafety(net, tc.bad, Options{Engine: eng})
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, eng, err)
			}
			if rep.Deadlock != tc.want {
				t.Errorf("%s: engine %v says reachable=%v, want %v",
					tc.name, eng, rep.Deadlock, tc.want)
			}
		}
	}
}

// TestSafetyOnRandomNets cross-validates CheckSafety on random nets and
// random bad pairs against the exhaustive predicate check, and holds
// every engine's witness to the contract: a reachable marking of the
// input net that marks every bad place.
func TestSafetyOnRandomNets(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		cfg := randnet.Default(seed)
		net := randnet.Generate(cfg)
		// Bad pair: place 1 of machine 0 and place 1 of machine 1.
		p1, ok1 := net.PlaceByName("m0s1")
		p2, ok2 := net.PlaceByName("m1s1")
		if !ok1 || !ok2 {
			t.Fatal("generator layout changed")
		}
		bad := []petri.Place{p1, p2}
		want, err := CheckSafety(net, bad, Options{Engine: Exhaustive})
		if err != nil {
			t.Fatal(err)
		}
		reachableBad := reachableBadSet(t, net, bad)
		for _, eng := range allEngines {
			got, err := CheckSafety(net, bad, Options{Engine: eng})
			if err != nil {
				t.Fatalf("%s/%v: %v", net.Name(), eng, err)
			}
			if got.Deadlock != want.Deadlock {
				t.Errorf("seed %d: engine %v says reachable=%v, exhaustive says %v",
					seed, eng, got.Deadlock, want.Deadlock)
			}
			if got.Deadlock {
				checkSafetyWitness(t, fmt.Sprintf("seed %d %v", seed, eng), net, reachableBad, bad, got.Witness)
			}
		}
	}
}

// reachableBadSet returns the keys of every reachable marking of net
// that marks all places of bad.
func reachableBadSet(t *testing.T, net *petri.Net, bad []petri.Place) map[string]bool {
	t.Helper()
	full, err := reach.Explore(net, reach.Options{Bad: func(m petri.Marking) bool { return m.HasAll(bad) }})
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool, len(full.BadStates))
	for _, m := range full.BadStates {
		set[m.Key()] = true
	}
	return set
}

// checkSafetyWitness asserts the safety witness contract: w has only
// places of net, marks every bad place, and is reachable (one of
// reachableBad).
func checkSafetyWitness(t *testing.T, what string, net *petri.Net, reachableBad map[string]bool, bad []petri.Place, w petri.Marking) {
	t.Helper()
	if w == nil {
		t.Errorf("%s: reachable verdict without a witness", what)
		return
	}
	for _, p := range w.Places() {
		if int(p) >= net.NumPlaces() {
			t.Errorf("%s: witness place index %d out of range [0,%d)", what, p, net.NumPlaces())
			return
		}
	}
	if !w.HasAll(bad) {
		t.Errorf("%s: witness %s does not mark every bad place", what, w.String(net))
	} else if !reachableBad[w.Key()] {
		t.Errorf("%s: witness %s is not reachable", what, w.String(net))
	}
}

// TestParseEngine round-trips the engine names.
func TestParseEngine(t *testing.T) {
	for _, e := range allEngines {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("round trip %v: got %v, %v", e, got, err)
		}
	}
	if _, err := ParseEngine("nope"); err == nil {
		t.Error("expected error for unknown engine")
	}
}

// TestReportFields spot-checks the statistics each engine reports.
func TestReportFields(t *testing.T) {
	net := models.NSDP(2)
	sym, err := CheckDeadlock(net, Options{Engine: Symbolic})
	if err != nil {
		t.Fatal(err)
	}
	if sym.PeakBDD == 0 {
		t.Error("symbolic report missing peak BDD size")
	}
	gpo, err := CheckDeadlock(net, Options{Engine: GPO})
	if err != nil {
		t.Fatal(err)
	}
	if gpo.PeakSets == 0 {
		t.Error("GPO report missing peak valid-set count")
	}
	if gpo.States != 3 {
		t.Errorf("GPO states=%d, want 3", gpo.States)
	}
	for _, e := range allEngines {
		rep, err := CheckDeadlock(net, Options{Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Net != net.Name() || rep.Engine != e {
			t.Errorf("report identity wrong: %+v", rep)
		}
	}
	_ = fmt.Sprintf("%v", gpo)
}
