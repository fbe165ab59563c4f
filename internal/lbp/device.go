package lbp

import (
	"encoding/gob"

	"repro/internal/trace"
)

// I/O devices for the non-interruptible I/O pattern of Section 6
// (Figures 16-17). LBP takes no interrupts: input controllers poll
// memory-mapped ports and the out-of-order engine synchronizes the
// consumers through p_swre/p_lwre or plain loads; here the devices are
// modeled as memory-mapped ports driven by a cycle schedule.
//
// A device is machine state like a hart: a checkpoint carries every
// attached device whole, configuration and schedule included, as gob
// encodes its exported fields, under the name registered here. A device
// of any other type fails Checkpoint with gob's unregistered-type error.
func init() {
	gob.RegisterName("lbp.Sensor", &Sensor{})
	gob.RegisterName("lbp.Actuator", &Actuator{})
}

// SensorEvent is one scheduled input arrival.
type SensorEvent struct {
	Cycle uint64
	Value uint32
}

// Sensor writes its value to ValueAddr and then bumps the sequence word
// at FlagAddr at each scheduled cycle. A polling hart observes the flag
// change and reads the value — the paper's "active wait of each input
// machine instruction on the input controller".
type Sensor struct {
	Name      string
	ValueAddr uint32
	FlagAddr  uint32
	Events    []SensorEvent

	Next int    // the first undelivered event of Events
	Seq  uint32 // the flag word's value: events delivered so far
}

// Step implements Device.
func (s *Sensor) Step(m *Machine, now uint64) {
	for s.Next < len(s.Events) && s.Events[s.Next].Cycle <= now {
		ev := s.Events[s.Next]
		s.Next++
		s.Seq++
		m.Mem.PokeShared(s.ValueAddr, ev.Value)
		m.Mem.PokeShared(s.FlagAddr, s.Seq)
		m.event(trace.KindIO, -1, s.Next, uint64(ev.Value))
	}
}

// NextArm implements Device: a sensor acts at its next scheduled
// arrival, so idle-cycle fast-forward may never jump past it.
func (s *Sensor) NextArm(now uint64) (uint64, bool) {
	if s.Next >= len(s.Events) {
		return 0, false
	}
	return s.Events[s.Next].Cycle, true
}

// ActuatorWrite is one observed output.
type ActuatorWrite struct {
	Cycle uint64
	Value uint32
}

// Actuator watches a (value, sequence) pair of words: whenever the
// sequence word changes, the value word is recorded with the cycle of
// observation. The driving program writes the value first and the
// sequence second; the LBP memory orders the two stores (same bank).
type Actuator struct {
	Name      string
	ValueAddr uint32
	SeqAddr   uint32

	LastSeq uint32          // the sequence word as last observed
	Writes  []ActuatorWrite // every write observed, a resumed run's included
}

// Step implements Device.
func (a *Actuator) Step(m *Machine, now uint64) {
	seq, ok := m.Mem.PeekShared(a.SeqAddr)
	if !ok || seq == a.LastSeq {
		return
	}
	a.LastSeq = seq
	v, _ := m.Mem.PeekShared(a.ValueAddr)
	a.Writes = append(a.Writes, ActuatorWrite{Cycle: now, Value: v})
	m.event(trace.KindIO, -2, 0, uint64(v))
}

// NextArm implements Device: the watched sequence word only changes when
// a store is applied, which happens exclusively inside memory events, so
// an actuator never needs to wake the machine on its own. Fast-forward
// lands exactly on the next memory-event cycle, where the poll observes
// the change at the same cycle single-stepping would.
func (a *Actuator) NextArm(now uint64) (uint64, bool) { return 0, false }
