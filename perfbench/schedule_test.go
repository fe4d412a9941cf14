package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// schedules renders every workload's schedule for a seed: the first
// cycles of the closed loops and ten seconds of the open loop.
func schedules(t *testing.T, seed uint64) []byte {
	t.Helper()
	all := map[string][]Item{}
	r := newRand(seed, "gpo-table1")
	for i := 0; i < 3; i++ {
		all["gpo-table1"] = append(all["gpo-table1"], gpoTable1Cycle(r)...)
	}
	r = newRand(seed, "explicit-baselines")
	for i := 0; i < 3; i++ {
		all["explicit-baselines"] = append(all["explicit-baselines"], explicitCycle(r, 2)...)
	}
	r = newRand(seed, "cluster-bfs")
	for i := 0; i < 3; i++ {
		all["cluster-bfs"] = append(all["cluster-bfs"], clusterCycle(r, seed, i)...)
	}
	answers, err := loadAnswers()
	if err != nil {
		t.Fatal(err)
	}
	all["serve-mix"] = serveSchedule(seed, 10*time.Second, answers)
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestScheduleDeterministic(t *testing.T) {
	a, b := schedules(t, 7), schedules(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed gave two different schedules")
	}
	if bytes.Equal(a, schedules(t, 8)) {
		t.Fatal("two seeds gave the same schedule")
	}
}

// The known-answer table lists exactly the checks the schedules can
// issue.
func TestAnswersCoverSchedules(t *testing.T) {
	answers, err := loadAnswers()
	if err != nil {
		t.Fatal(err)
	}
	checks := allChecks()
	for _, c := range checks {
		if _, ok := answers[c.AnswerKey()]; !ok {
			t.Errorf("no known answer for %s", c.AnswerKey())
		}
	}
	if len(answers) != len(checks) {
		t.Errorf("answers.json has %d entries, the workloads issue %d checks", len(answers), len(checks))
	}
}

// BENCHMARK.json declares exactly the metrics the driver prints, with
// the same units.
func TestBenchmarkDeclaresPrintedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []decl
		printed  []struct{ name, unit string }
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the driver prints %d", len(c.declared), len(c.printed))
		}
		for i, d := range c.declared {
			if p := c.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("metric %d: declared %s %s, printed %s %s", i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
}
