package trace

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"

	"indulgence/internal/model"
	"indulgence/internal/wire"
)

// The JSON form of a recorded run: a stable, self-contained format for
// archiving runs and analysing them outside Go. Payloads are embedded as
// base64 of their wire encoding, so the JSON layer stays independent of
// the payload vocabulary.

type jsonRun struct {
	N         int           `json:"n"`
	T         int           `json:"t"`
	Synchrony string        `json:"synchrony"`
	Algorithm string        `json:"algorithm"`
	GSR       model.Round   `json:"gsr"`
	Rounds    model.Round   `json:"rounds"`
	Procs     []jsonProcess `json:"procs"`
}

type jsonProcess struct {
	ID           model.ProcessID `json:"id"`
	Proposal     model.Value     `json:"proposal"`
	CrashRound   model.Round     `json:"crashRound,omitempty"`
	Decided      *model.Value    `json:"decided,omitempty"`
	DecidedRound model.Round     `json:"decidedRound,omitempty"`
	Steps        []jsonStep      `json:"steps"`
}

type jsonStep struct {
	Round     model.Round   `json:"round"`
	Completes bool          `json:"completes"`
	Sent      string        `json:"sent,omitempty"` // base64 wire payload
	Received  []jsonMessage `json:"received,omitempty"`
}

type jsonMessage struct {
	From    model.ProcessID `json:"from"`
	Round   model.Round     `json:"round"`
	Payload string          `json:"payload,omitempty"` // base64 wire payload
}

func encodePayloadB64(p model.Payload) (string, error) {
	if p == nil {
		return "", nil
	}
	raw, err := wire.EncodePayload(nil, p)
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(raw), nil
}

func decodePayloadB64(s string) (model.Payload, error) {
	if s == "" {
		return nil, nil
	}
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("trace: payload base64: %w", err)
	}
	p, _, err := wire.DecodePayload(raw)
	return p, err
}

// WriteJSON serializes the run to w as indented JSON.
func (r *Run) WriteJSON(w io.Writer) error {
	out := jsonRun{
		N: r.N, T: r.T,
		Synchrony: r.Synchrony.String(),
		Algorithm: r.Algorithm,
		GSR:       r.GSR,
		Rounds:    r.Rounds,
		Procs:     make([]jsonProcess, 0, len(r.Procs)),
	}
	for i := range r.Procs {
		pt := &r.Procs[i]
		jp := jsonProcess{
			ID:         pt.ID,
			Proposal:   pt.Proposal,
			CrashRound: pt.CrashRound,
			Steps:      make([]jsonStep, 0, len(pt.Steps)),
		}
		if v, ok := pt.Decided.Get(); ok {
			val := v
			jp.Decided = &val
			jp.DecidedRound = pt.DecidedRound
		}
		for _, st := range pt.Steps {
			sent, err := encodePayloadB64(st.Sent)
			if err != nil {
				return fmt.Errorf("trace: encode p%d round %d send: %w", pt.ID, st.Round, err)
			}
			js := jsonStep{
				Round:     st.Round,
				Completes: st.Completes,
				Sent:      sent,
			}
			for _, m := range st.Received {
				pl, err := encodePayloadB64(m.Payload)
				if err != nil {
					return fmt.Errorf("trace: encode p%d round %d receive: %w", pt.ID, st.Round, err)
				}
				js.Received = append(js.Received, jsonMessage{From: m.From, Round: m.Round, Payload: pl})
			}
			jp.Steps = append(jp.Steps, js)
		}
		out.Procs = append(out.Procs, jp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON deserializes a run written by WriteJSON. It rejects a run
// whose shape no simulated run has, so that the checkers indexing a
// Run by process and round can trust it: n processes with IDs 1..n, each
// with steps for rounds 1, 2, … in order, and no step or decision past
// the run's last round.
func ReadJSON(r io.Reader) (*Run, error) {
	var in jsonRun
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	if err := in.checkShape(); err != nil {
		return nil, err
	}
	run := &Run{
		N: in.N, T: in.T,
		Algorithm: in.Algorithm,
		GSR:       in.GSR,
		Rounds:    in.Rounds,
		Procs:     make([]ProcessTrace, 0, len(in.Procs)),
	}
	switch in.Synchrony {
	case model.SCS.String():
		run.Synchrony = model.SCS
	case model.ES.String():
		run.Synchrony = model.ES
	default:
		return nil, fmt.Errorf("trace: unknown synchrony %q", in.Synchrony)
	}
	for _, jp := range in.Procs {
		pt := ProcessTrace{
			ID:         jp.ID,
			Proposal:   jp.Proposal,
			CrashRound: jp.CrashRound,
		}
		if jp.Decided != nil {
			pt.Decided = model.Some(*jp.Decided)
			pt.DecidedRound = jp.DecidedRound
		}
		for _, js := range jp.Steps {
			sent, err := decodePayloadB64(js.Sent)
			if err != nil {
				return nil, fmt.Errorf("trace: decode p%d round %d send: %w", jp.ID, js.Round, err)
			}
			st := Step{
				Round:     js.Round,
				Completes: js.Completes,
				Sent:      sent,
			}
			for _, jm := range js.Received {
				pl, err := decodePayloadB64(jm.Payload)
				if err != nil {
					return nil, fmt.Errorf("trace: decode p%d round %d receive: %w", jp.ID, js.Round, err)
				}
				st.Received = append(st.Received, model.Message{From: jm.From, Round: jm.Round, Payload: pl})
			}
			pt.Steps = append(pt.Steps, st)
		}
		run.Procs = append(run.Procs, pt)
	}
	return run, nil
}

func (in *jsonRun) checkShape() error {
	switch {
	case in.N < 1 || in.N > model.MaxProcesses:
		return fmt.Errorf("trace: n must be in 1..%d, got %d", model.MaxProcesses, in.N)
	case len(in.Procs) != in.N:
		return fmt.Errorf("trace: procs holds %d processes, want n=%d", len(in.Procs), in.N)
	case in.GSR < 1:
		return fmt.Errorf("trace: gsr must be at least 1, got %d", in.GSR)
	case in.Rounds < 0:
		return fmt.Errorf("trace: rounds must not be negative, got %d", in.Rounds)
	}
	for i, jp := range in.Procs {
		if jp.ID != model.ProcessID(i+1) {
			return fmt.Errorf("trace: procs[%d] has id %d, want %d", i, jp.ID, i+1)
		}
		if jp.DecidedRound > in.Rounds {
			return fmt.Errorf("trace: p%d decidedRound %d exceeds rounds %d", jp.ID, jp.DecidedRound, in.Rounds)
		}
		for j, js := range jp.Steps {
			if js.Round != model.Round(j+1) {
				return fmt.Errorf("trace: p%d steps[%d] has round %d, want %d", jp.ID, j, js.Round, j+1)
			}
			if js.Round > in.Rounds {
				return fmt.Errorf("trace: p%d step round %d exceeds rounds %d", jp.ID, js.Round, in.Rounds)
			}
		}
	}
	return nil
}
