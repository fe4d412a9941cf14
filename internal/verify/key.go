package verify

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/petri"
)

// Key is the content address of one verification: the SHA-256 of the
// canonical binary encoding of the net plus every result-determining
// option. It names three things at once: the gpod result-cache line,
// the run ID recorded in the run ledger (ledger/v1), and the live run
// exposed on GET /v1/runs — one identity from admission to history.
type Key [sha256.Size]byte

// RunID renders the key as the short run identifier used everywhere a
// human or a log line meets the content address: "r" plus the first 12
// bytes in hex. 96 bits keeps accidental collisions out of reach for
// any plausible ledger size while staying grep-friendly.
func (k Key) RunID() string {
	return "r" + hex.EncodeToString(k[:12])
}

// appendString appends a length-prefixed string, the same
// self-delimiting style as the family algebras' AppendKey, so no two
// distinct nets can collide by concatenation.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendNetKey appends the canonical encoding of the net: name, places
// (names in index order), initial marking, and per-transition name and
// sorted pre/post place sets. Two nets encode equal iff they describe
// the same net the same way; structural isomorphs with different names
// or orderings are (deliberately) distinct — witnesses speak in place
// names, so names are part of the content.
func AppendNetKey(b []byte, n *petri.Net) []byte {
	b = appendString(b, n.Name())
	b = binary.AppendUvarint(b, uint64(n.NumPlaces()))
	for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
		b = appendString(b, n.PlaceName(p))
	}
	init := n.InitialPlaces()
	b = binary.AppendUvarint(b, uint64(len(init)))
	for _, p := range init {
		b = binary.AppendUvarint(b, uint64(p))
	}
	b = binary.AppendUvarint(b, uint64(n.NumTrans()))
	for t := petri.Trans(0); int(t) < n.NumTrans(); t++ {
		b = appendString(b, n.TransName(t))
		pre, post := n.Pre(t), n.Post(t)
		b = binary.AppendUvarint(b, uint64(len(pre)))
		for _, p := range pre {
			b = binary.AppendUvarint(b, uint64(p))
		}
		b = binary.AppendUvarint(b, uint64(len(post)))
		for _, p := range post {
			b = binary.AppendUvarint(b, uint64(p))
		}
	}
	return b
}

// RunKeyFormat versions the RunKey encoding itself. It is folded into
// every hash, so a deliberate change to how keys are computed (new
// result-determining option, reordered encoding) is made by bumping
// this constant: every RunID changes at once and stale cache lines,
// ledger entries and checkpoints can never collide with keys of the
// new scheme. TestRunKeyGolden pins the current values and explains
// the bump procedure in its failure message.
const RunKeyFormat = 2

// RunKey hashes the net, the check, and the options that determine the
// result. Workers is excluded: the parallel exhaustive explorer is
// bit-identical to the sequential one (DESIGN.md D6), so both share one
// content address. Timeouts and contexts are excluded because aborted
// results are never cached and a run's identity should not depend on
// where a deadline happened to land. Ckpt and Resume are excluded
// because a resumed run computes exactly what the uninterrupted run
// would have — the checkpoint is keyed by the same RunKey it resumes.
// bad is hashed in its canonical form (sorted, duplicates removed), the
// form CheckSafety checks, so every listing of one bad set names one run.
func RunKey(n *petri.Net, check string, bad []petri.Place, o Options) Key {
	bad = canonicalBad(bad)
	b := make([]byte, 0, 1024)
	b = binary.AppendUvarint(b, RunKeyFormat)
	b = AppendNetKey(b, n)
	b = appendString(b, check)
	b = binary.AppendUvarint(b, uint64(len(bad)))
	for _, p := range bad {
		b = binary.AppendUvarint(b, uint64(p))
	}
	b = binary.AppendUvarint(b, uint64(o.Engine))
	flags := uint64(0)
	if o.StopAtFirst {
		flags |= 1
	}
	if o.Proviso {
		flags |= 2
	}
	if o.Reduce {
		flags |= 4
	}
	b = binary.AppendUvarint(b, flags)
	b = binary.AppendUvarint(b, uint64(o.MaxStates))
	b = binary.AppendUvarint(b, uint64(o.MaxNodes))
	return sha256.Sum256(b)
}

// RunID is the one-call convenience over RunKey for callers that only
// need the identifier (the CLIs' ledger entries).
func RunID(n *petri.Net, check string, bad []petri.Place, o Options) string {
	return RunKey(n, check, bad, o).RunID()
}
