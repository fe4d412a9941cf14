package main

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/pnio"
)

// Inst is one model instance: a built-in family at a size.
type Inst struct {
	Family string `json:"family"`
	Size   int    `json:"size"`
}

func (i Inst) String() string { return fmt.Sprintf("%s(%d)", i.Family, i.Size) }

// Build constructs the instance's net.
func (i Inst) Build() (*petri.Net, error) { return models.ByName(i.Family, i.Size) }

// table1 lists the paper's Table 1 rows at their published sizes.
var table1 = []Inst{
	{"nsdp", 2}, {"nsdp", 4}, {"nsdp", 6}, {"nsdp", 8}, {"nsdp", 10},
	{"asat", 2}, {"asat", 4}, {"asat", 8},
	{"over", 2}, {"over", 3}, {"over", 4}, {"over", 5},
	{"rw", 6}, {"rw", 9}, {"rw", 12}, {"rw", 15},
}

// figures lists the paper's figure nets the service mix sends.
var figures = []Inst{{"fig1", 4}, {"fig2", 4}, {"fig3", 0}, {"fig5", 0}, {"fig7", 0}}

// badPools returns the bad-place combinations the workloads draw from
// for an instance: pairs the known-answer table marks reachable and
// pairs it marks unreachable. Each pool is one symmetric pattern
// rotated over the instance's components, so every draw costs about
// the same.
func badPools(in Inst) (reachable, unreachable [][]string) {
	pair := func(a string, i int, b string, j int) []string {
		return []string{fmt.Sprintf("%s%d", a, i), fmt.Sprintf("%s%d", b, j)}
	}
	n := in.Size
	switch in.Family {
	case "nsdp":
		// Neighbours may both hold their left fork, never both eat.
		for i := 0; i < n; i++ {
			reachable = append(reachable, pair("hasL", i, "hasL", (i+1)%n))
			unreachable = append(unreachable, pair("eat", i, "eat", (i+1)%n))
		}
	case "asat":
		// Leaves n..2n-1 may request together; the arbiter serves one.
		for i := 0; i < n; i++ {
			a, b := n+i, n+(i+1)%n
			reachable = append(reachable, pair("pend", a, "pend", b))
			unreachable = append(unreachable, pair("busy", a, "busy", b))
		}
	case "over":
		// Car i passing on the left excludes car i+1 passing on the
		// right of the same gap.
		for i := 0; i < n; i++ {
			reachable = append(reachable, pair("passL", i, "passL", (i+1)%n))
			unreachable = append(unreachable, pair("passR", i, "passL", (i+1)%n))
		}
	case "rw":
		// Readers share; the writer excludes every reader.
		for i := 0; i < n; i++ {
			reachable = append(reachable, pair("reading", i, "reading", (i+1)%n))
			unreachable = append(unreachable, []string{fmt.Sprintf("reading%d", i), "writing"})
		}
	}
	return reachable, unreachable
}

// Check is one verification the workloads issue. Workers and Cluster
// change how the answer is computed, never what it is, so they are not
// part of the answer key.
type Check struct {
	Inst
	Engine  string   `json:"engine"`
	Kind    string   `json:"check"` // "deadlock" or "safety"
	Bad     []string `json:"bad,omitempty"`
	Reduce  bool     `json:"reduce,omitempty"`
	Proviso bool     `json:"proviso,omitempty"`
	Workers int      `json:"workers,omitempty"`
	Cluster bool     `json:"cluster,omitempty"`
	Async   bool     `json:"async,omitempty"`
}

// AnswerKey names the check's entry in the known-answer table.
func (c Check) AnswerKey() string {
	k := fmt.Sprintf("%s|%s|%s", c.Inst, c.Engine, c.Kind)
	if len(c.Bad) > 0 {
		k += "|" + strings.Join(c.Bad, ",")
	}
	if c.Reduce {
		k += "|reduce"
	}
	if c.Proviso {
		k += "|proviso"
	}
	return k
}

// Label is the check's kind without its bad set: the unit per-kind
// timings are grouped by.
func (c Check) Label() string {
	k := fmt.Sprintf("%s %s %s", c.Inst, c.Engine, c.Kind)
	if c.Reduce {
		k += " reduce"
	}
	if c.Proviso {
		k += " proviso"
	}
	if c.Workers > 0 {
		k += fmt.Sprintf(" w%d", c.Workers)
	}
	return k
}

// monitored reports whether the engine reduces a safety check to
// deadlock on a monitored net (petri.WithSafetyMonitor).
func monitored(engine string) bool {
	switch engine {
	case "partial-order", "gpo", "gpo-explicit", "unfolding":
		return true
	}
	return false
}

// netText renders an instance in .pn format with the net's name
// replaced by name; the name is part of the service's run key, so a
// fresh name makes a cold request with an unchanged answer.
func netText(in Inst, name string) (string, error) {
	n, err := in.Build()
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	if err := pnio.Write(&b, n); err != nil {
		return "", err
	}
	s := b.String()
	nl := strings.IndexByte(s, '\n')
	return "net " + name + s[nl:], nil
}
