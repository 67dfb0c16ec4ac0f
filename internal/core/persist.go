package core

// Controller checkpoint codecs. Every controller the simulator can
// checkpoint implements StateCodec; the machine serializer verifies the
// controller name and delegates the policy-specific payload here. The
// codecs restore *exact* state — dueling cost accumulators, dead-write
// predictor counters, pending tables — because a resumed run must be
// byte-identical to an uninterrupted one, not merely re-warmed.

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/checkpoint/wire"
)

// StateCodec is implemented by controllers (and machine components)
// whose mutable state round-trips through the wire format.
type StateCodec interface {
	EncodeState(e *wire.Encoder)
	DecodeState(d *wire.Decoder) error
}

// CanCheckpoint reports whether c's mutable state can be serialized:
// it implements StateCodec and, for wrappers, so does everything it
// wraps.
func CanCheckpoint(c Controller) bool {
	switch v := c.(type) {
	case *DeadWriteBypass:
		return CanCheckpoint(v.base)
	case StateCodec:
		return true
	default:
		return false
	}
}

// EncodeState appends every Metrics counter, in declaration order.
func (m *Metrics) EncodeState(e *wire.Encoder) { e.U64Struct(m) }

// DecodeState restores every Metrics counter. A field-count mismatch
// (the struct changed since the checkpoint was written) is an error.
func (m *Metrics) DecodeState(d *wire.Decoder) error {
	d.U64Struct(m)
	return d.Err()
}

// EncodeState appends the bank model's busy-horizon and op counters.
func (b *Banks) EncodeState(e *wire.Encoder) {
	e.U64s(b.next)
	e.U64s(b.ops)
}

// DecodeState restores the bank model; the bank count must match.
func (b *Banks) DecodeState(d *wire.Decoder) error {
	next := d.U64s()
	ops := d.U64s()
	if err := d.Err(); err != nil {
		return err
	}
	if len(next) != len(b.next) || len(ops) != len(b.ops) {
		return fmt.Errorf("core: bank count mismatch (%d banks, snapshot has %d)", len(b.next), len(next))
	}
	copy(b.next, next)
	copy(b.ops, ops)
	return nil
}

// The stateless traditional controllers have nothing to save: their
// behavior is a pure function of cache state, which the machine
// serializes separately.

// EncodeState implements StateCodec (no mutable state).
func (*NonInclusive) EncodeState(*wire.Encoder) {}

// DecodeState implements StateCodec (no mutable state).
func (*NonInclusive) DecodeState(*wire.Decoder) error { return nil }

// EncodeState implements StateCodec (no mutable state).
func (*Exclusive) EncodeState(*wire.Encoder) {}

// DecodeState implements StateCodec (no mutable state).
func (*Exclusive) DecodeState(*wire.Decoder) error { return nil }

// EncodeState implements StateCodec (no mutable state).
func (*Inclusive) EncodeState(*wire.Encoder) {}

// DecodeState implements StateCodec (no mutable state).
func (*Inclusive) DecodeState(*wire.Decoder) error { return nil }

// EncodeState implements StateCodec: LAP's only mutable state is the
// replacement duel (the mode is configuration).
func (c *LAP) EncodeState(e *wire.Encoder) { c.duel.EncodeState(e) }

// DecodeState implements StateCodec.
func (c *LAP) DecodeState(d *wire.Decoder) error { return c.duel.DecodeState(d) }

// EncodeState implements StateCodec: Lhybrid's placement flags are
// configuration; the wrapped LAP duel is the mutable state.
func (c *Hybrid) EncodeState(e *wire.Encoder) { c.lap.EncodeState(e) }

// DecodeState implements StateCodec.
func (c *Hybrid) DecodeState(d *wire.Decoder) error { return c.lap.DecodeState(d) }

// EncodeState implements StateCodec: the inclusion duel carries the
// switching baselines' election state.
func (c *switching) EncodeState(e *wire.Encoder) { c.duel.EncodeState(e) }

// DecodeState implements StateCodec.
func (c *switching) DecodeState(d *wire.Decoder) error { return c.duel.DecodeState(d) }

// EncodeState implements StateCodec: the predictor table, the pending
// (inserted-not-yet-reused) block set in sorted order for determinism,
// then the wrapped base controller's state.
func (c *DeadWriteBypass) EncodeState(e *wire.Encoder) {
	e.Raw(c.table)
	keys := make([]uint64, 0, len(c.pending))
	for b := range c.pending {
		keys = append(keys, b)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.U64s(keys)
	base, ok := c.base.(StateCodec)
	if !ok {
		panic(fmt.Sprintf("core: checkpointing DWB over non-checkpointable %s", c.base.Name()))
	}
	base.EncodeState(e)
}

// DecodeState implements StateCodec.
func (c *DeadWriteBypass) DecodeState(d *wire.Decoder) error {
	table := d.Raw()
	keys := d.U64s()
	if err := d.Err(); err != nil {
		return err
	}
	if len(table) != len(c.table) {
		return fmt.Errorf("core: DWB table size mismatch (%d, snapshot has %d)", len(c.table), len(table))
	}
	copy(c.table, table)
	c.pending = make(map[uint64]struct{}, len(keys))
	for _, b := range keys {
		c.pending[b] = struct{}{}
	}
	base, ok := c.base.(StateCodec)
	if !ok {
		return fmt.Errorf("core: restoring DWB over non-checkpointable %s", c.base.Name())
	}
	return base.DecodeState(d)
}

// EncodeState implements StateCodec: the reuse signature table is the
// only mutable state.
func (c *ReuseDetector) EncodeState(e *wire.Encoder) { e.U64s(c.sig) }

// DecodeState implements StateCodec.
func (c *ReuseDetector) DecodeState(d *wire.Decoder) error {
	sig := d.U64s()
	if err := d.Err(); err != nil {
		return err
	}
	if len(sig) != len(c.sig) {
		return fmt.Errorf("core: reuse-detector table size mismatch (%d, snapshot has %d)", len(c.sig), len(sig))
	}
	copy(c.sig, sig)
	return nil
}

// EncodeState implements StateCodec: the reuse clock, the derived
// threshold, and the last-touch table.
func (c *RDCopyback) EncodeState(e *wire.Encoder) {
	e.U64(c.clock)
	e.U64(c.threshold)
	e.U64s(c.last)
}

// DecodeState implements StateCodec.
func (c *RDCopyback) DecodeState(d *wire.Decoder) error {
	clock := d.U64()
	threshold := d.U64()
	last := d.U64s()
	if err := d.Err(); err != nil {
		return err
	}
	if len(last) != len(c.last) {
		return fmt.Errorf("core: rd-copyback table size mismatch (%d, snapshot has %d)", len(c.last), len(last))
	}
	c.clock = clock
	c.threshold = threshold
	copy(c.last, last)
	return nil
}

// ensure the controllers actually satisfy the interface.
var (
	_ StateCodec = (*LAP)(nil)
	_ StateCodec = (*Hybrid)(nil)
	_ StateCodec = (*switching)(nil)
	_ StateCodec = (*DeadWriteBypass)(nil)
	_ StateCodec = (*NonInclusive)(nil)
	_ StateCodec = (*Exclusive)(nil)
	_ StateCodec = (*Inclusive)(nil)
	_ StateCodec = (*ReuseDetector)(nil)
	_ StateCodec = (*RDCopyback)(nil)
	_ StateCodec = (*Metrics)(nil)
	_ StateCodec = (*Banks)(nil)
	_ StateCodec = (*cache.Duel)(nil)
)
