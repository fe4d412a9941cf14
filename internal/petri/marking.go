package petri

import (
	"sort"
	"strings"
)

// Marking is the token configuration of a safe net: a bitset over places.
// For safe nets a marking m : P → ℕ never exceeds one token per place, so
// the marking is exactly the set {p | m(p) = 1}.
type Marking []uint64

// EmptyMarking returns a marking with no tokens, sized for the net.
func (n *Net) EmptyMarking() Marking { return make(Marking, n.markWords) }

// InitialMarking returns a copy of m₀.
func (n *Net) InitialMarking() Marking { return n.initMark.Clone() }

// Has reports whether place p is marked.
func (m Marking) Has(p Place) bool { return m[p/64]&(1<<uint(p%64)) != 0 }

// HasAll reports whether every place of ps is marked (true for an empty
// ps).
func (m Marking) HasAll(ps []Place) bool {
	for _, p := range ps {
		if !m.Has(p) {
			return false
		}
	}
	return true
}

// Set marks place p.
func (m Marking) Set(p Place) { m[p/64] |= 1 << uint(p%64) }

// Clear unmarks place p.
func (m Marking) Clear(p Place) { m[p/64] &^= 1 << uint(p%64) }

// Clone returns an independent copy of m.
func (m Marking) Clone() Marking {
	out := make(Marking, len(m))
	copy(out, m)
	return out
}

// Equal reports whether two markings of the same net are identical.
func (m Marking) Equal(o Marking) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// Key returns a map key unique per marking of a given net.
func (m Marking) Key() string {
	var b strings.Builder
	b.Grow(len(m) * 8)
	for _, w := range m {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(w >> (8 * uint(i)))
		}
		b.Write(buf[:])
	}
	return b.String()
}

// fnv1a64 constants (FNV-1a, 64 bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// KeyHash returns Key() together with its 64-bit FNV-1a hash, computed
// in the same pass over the words. The hash is the shard-routing key of
// the parallel explorer's visited store and of the cluster wire
// protocol, so computing it at key-construction time removes the
// second walk over the just-built string.
func (m Marking) KeyHash() (string, uint64) {
	var b strings.Builder
	b.Grow(len(m) * 8)
	h := uint64(fnvOffset64)
	for _, w := range m {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			c := byte(w >> (8 * uint(i)))
			buf[i] = c
			h = (h ^ uint64(c)) * fnvPrime64
		}
		b.Write(buf[:])
	}
	return b.String(), h
}

// HashKey returns the 64-bit FNV-1a hash of an already-built marking
// key, for callers that receive keys over the wire rather than
// constructing them from a Marking. HashKey(m.Key()) equals the hash
// KeyHash returns.
func HashKey(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime64
	}
	return h
}

// MarkingFromKey reconstructs the Marking a Key() byte string encodes.
// It is the inverse of Key for markings of this net; a key of the wrong
// length (a different net, or a torn wire frame) returns ok=false.
func (n *Net) MarkingFromKey(key string) (Marking, bool) {
	if len(key) != n.markWords*8 {
		return nil, false
	}
	m := make(Marking, n.markWords)
	for wi := range m {
		var w uint64
		for i := 0; i < 8; i++ {
			w |= uint64(key[wi*8+i]) << (8 * uint(i))
		}
		m[wi] = w
	}
	return m, true
}

// MarkingFromKeyBytes reconstructs a Marking from a Key() byte string
// without a Net: the width is taken from the key itself (8 bytes per
// word). Callers that know which net the marking belongs to should use
// Net.MarkingFromKey, which also validates the width; this form is for
// containers (internal/ckpt) that carry markings of a derived net — a
// monitored or structurally reduced one — whose shape is only
// reconstructed later. A key whose length is not a multiple of 8
// returns ok=false.
func MarkingFromKeyBytes(key string) (Marking, bool) {
	if len(key)%8 != 0 || len(key) == 0 {
		return nil, false
	}
	m := make(Marking, len(key)/8)
	for wi := range m {
		var w uint64
		for i := 0; i < 8; i++ {
			w |= uint64(key[wi*8+i]) << (8 * uint(i))
		}
		m[wi] = w
	}
	return m, true
}

// Places returns the marked places in increasing order.
func (m Marking) Places() []Place {
	var out []Place
	for wi, w := range m {
		for b := 0; b < 64; b++ {
			if w&(1<<uint(b)) != 0 {
				out = append(out, Place(wi*64+b))
			}
		}
	}
	return out
}

// String renders the marking using the net's place names, sorted.
func (m Marking) String(n *Net) string {
	var names []string
	for _, p := range m.Places() {
		names = append(names, n.PlaceName(p))
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}

// Enabled implements the classical enabling rule (Definition 2.3):
// t is enabled iff every input place carries a token.
func (n *Net) Enabled(m Marking, t Trans) bool {
	for _, p := range n.pre[t] {
		if !m.Has(p) {
			return false
		}
	}
	return true
}

// EnabledTrans returns all transitions enabled in m, in increasing order.
func (n *Net) EnabledTrans(m Marking) []Trans {
	var out []Trans
	for t := Trans(0); int(t) < n.NumTrans(); t++ {
		if n.Enabled(m, t) {
			out = append(out, t)
		}
	}
	return out
}

// IsDeadlock reports whether no transition is enabled in m.
func (n *Net) IsDeadlock(m Marking) bool {
	for t := Trans(0); int(t) < n.NumTrans(); t++ {
		if n.Enabled(m, t) {
			return false
		}
	}
	return true
}

// Fire implements the classical firing rule (Definition 2.4) for safe nets:
// it removes the token from each p ∈ •t \ t•, and adds a token to each
// p ∈ t• \ •t. It returns the successor marking and whether the firing kept
// the net safe (i.e. no output place outside •t was already marked).
// Fire panics if t is not enabled; callers check Enabled first.
func (n *Net) Fire(m Marking, t Trans) (next Marking, safe bool) {
	if !n.Enabled(m, t) {
		panic("petri: firing disabled transition " + n.transNames[t])
	}
	next = m.Clone()
	for _, p := range n.pre[t] {
		next.Clear(p)
	}
	safe = true
	for _, p := range n.post[t] {
		if next.Has(p) {
			safe = false
		}
		next.Set(p)
	}
	return next, safe
}
