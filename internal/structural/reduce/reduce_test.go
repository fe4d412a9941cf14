package reduce_test

import (
	"testing"

	"repro/internal/petri"
	"repro/internal/randnet"
	"repro/internal/reach"
	"repro/internal/structural/reduce"
	"repro/internal/verify"
)

var allEngines = []verify.Engine{
	verify.Exhaustive, verify.PartialOrder, verify.Symbolic,
	verify.GPO, verify.GPOExplicit, verify.Unfolding,
}

// TestReduceDeterministic pins that the pipeline is a pure function of
// the net: two runs produce structurally identical reduced nets and
// identical rule counts (reduced runs share content-addressed run IDs,
// so this is load-bearing for the cache and the ledger).
func TestReduceDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		net := randnet.Generate(randnet.Default(seed))
		a, err := reduce.Run(net, reduce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := reduce.Run(net, reduce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ka := verify.AppendNetKey(nil, a.Net())
		kb := verify.AppendNetKey(nil, b.Net())
		if string(ka) != string(kb) {
			t.Fatalf("seed %d: two reductions of the same net differ", seed)
		}
		ra, rb := a.Rules(), b.Rules()
		if len(ra) != len(rb) {
			t.Fatalf("seed %d: rule counts differ: %v vs %v", seed, ra, rb)
		}
		for k, v := range ra {
			if rb[k] != v {
				t.Fatalf("seed %d: rule counts differ: %v vs %v", seed, ra, rb)
			}
		}
	}
}

// TestReduceExpandInitialMarking checks the certificate's arithmetic on
// the one reachable marking we always know: expanding the reduced
// initial marking must reproduce the original initial marking exactly.
func TestReduceExpandInitialMarking(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		net := randnet.Generate(randnet.Default(seed))
		cert, err := reduce.Run(net, reduce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := cert.ExpandMarking(cert.Net().InitialMarking())
		if !got.Equal(net.InitialMarking()) {
			t.Fatalf("seed %d: expand(reduced m0) = %s, want %s",
				seed, got.String(net), net.InitialMarking().String(net))
		}
		if cert.ExpandMarking(nil) != nil {
			t.Fatalf("seed %d: ExpandMarking(nil) != nil", seed)
		}
	}
}

// soundMaxStates caps each engine run in the random-net differentials.
// The GPO family analysis legitimately explodes on some random nets
// (unreduced ones included — the same reason internal/core's own
// differential test caps at 3000), so capped runs that did not complete
// are skipped rather than compared; exhaustive exploration of these tiny
// nets is the ground truth every completed run must agree with.
const soundMaxStates = 4000

// TestReduceDeadlockSoundRandom is the reduction soundness differential:
// on seeded random nets, every engine run that completes — with and
// without the reduction pre-pass — must agree with the exhaustive ground
// truth, and the mapped witness must be a genuine dead marking of the
// original net.
func TestReduceDeadlockSoundRandom(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 6
	}
	compared, skipped := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		net := randnet.Generate(randnet.Default(seed))
		ground, err := verify.CheckDeadlock(net, verify.Options{Engine: verify.Exhaustive})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, eng := range allEngines {
			opts := verify.Options{Engine: eng, MaxStates: soundMaxStates, MaxNodes: 1 << 21}
			base, errb := verify.CheckDeadlock(net, opts)
			opts.Reduce = true
			red, errr := verify.CheckDeadlock(net, opts)
			runs := []struct {
				label string
				rep   *verify.Report
				err   error
			}{{"base", base, errb}, {"reduced", red, errr}}
			for _, r := range runs {
				if r.err != nil || !r.rep.Complete {
					skipped++
					continue
				}
				compared++
				if r.rep.Deadlock != ground.Deadlock {
					t.Errorf("seed %d %s %s: verdict %v, exhaustive says %v",
						seed, eng, r.label, r.rep.Deadlock, ground.Deadlock)
				}
				if r.rep.Witness != nil && !net.IsDeadlock(r.rep.Witness) {
					t.Errorf("seed %d %s %s: witness %s is not dead in the original net",
						seed, eng, r.label, r.rep.Witness.String(net))
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("every run hit the state cap; the differential compared nothing")
	}
	t.Logf("compared %d runs, skipped %d capped runs", compared, skipped)
}

// TestReduceSafetySoundRandom checks the safety path: random bad pairs,
// verdict equality for every engine, and mapped witnesses that really
// exhibit the property — for every engine, a reachable marking of the
// original net that marks every bad place.
func TestReduceSafetySoundRandom(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		net := randnet.Generate(randnet.Default(seed))
		// Two bad pairs per net: one likely reachable (initial places of
		// two machines), one arbitrary.
		init := net.InitialPlaces()
		pairs := [][]petri.Place{
			{init[0], init[1]},
			{petri.Place(1), petri.Place(int(seed) % net.NumPlaces())},
		}
		for _, bad := range pairs {
			if bad[0] == bad[1] {
				continue
			}
			ground, err := reach.Explore(net, reach.Options{Bad: func(m petri.Marking) bool { return m.HasAll(bad) }})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			reachableBad := make(map[string]bool, len(ground.BadStates))
			for _, m := range ground.BadStates {
				reachableBad[m.Key()] = true
			}
			for _, eng := range allEngines {
				opts := verify.Options{Engine: eng, MaxStates: soundMaxStates, MaxNodes: 1 << 21, Reduce: true}
				red, err := verify.CheckSafety(net, bad, opts)
				if err != nil || !red.Complete {
					continue // capped: the family analysis can blow up here too
				}
				if ground.BadFound != red.Deadlock {
					t.Errorf("seed %d %s bad=%v: exhaustive verdict %v, reduced+mapped %v",
						seed, eng, bad, ground.BadFound, red.Deadlock)
				}
				if red.Deadlock && !reachableBad[red.Witness.Key()] {
					t.Errorf("seed %d %s bad=%v: mapped witness %v is not a reachable marking marking every bad place",
						seed, eng, bad, red.Witness.Places())
				}
			}
		}
	}
}

// TestReduceProtectKeepsPlaces checks the Protect contract: protected
// places always survive into the reduced net and MapPlaces resolves
// them.
func TestReduceProtectKeepsPlaces(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		net := randnet.Generate(randnet.Default(seed))
		protect := []petri.Place{0, petri.Place(net.NumPlaces() - 1)}
		cert, err := reduce.Run(net, reduce.Options{Protect: protect})
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := cert.MapPlaces(protect)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, rp := range mapped {
			if got := cert.Net().PlaceName(rp); got != net.PlaceName(protect[i]) {
				t.Errorf("seed %d: protected %s mapped to %s", seed, net.PlaceName(protect[i]), got)
			}
		}
	}
}
