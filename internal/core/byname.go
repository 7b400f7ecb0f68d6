package core

import (
	"fmt"

	"indulgence/internal/baseline"
	"indulgence/internal/model"
)

// ByName resolves an algorithm's command-line name to its factory and
// the receive discipline the live runtime must run it under. The pairing
// is stated here once so that no caller makes it by hand: A_◇S is only
// live under WaitQuorum (Fig. 3 waits for n−t messages, no more), every
// other algorithm uses the ◇P-style WaitUnsuspected.
func ByName(name string) (model.Factory, WaitPolicy, error) {
	switch name {
	case "atplus2":
		return New(Options{}), WaitUnsuspected, nil
	case "atplus2ff":
		return New(Options{FailureFreeFast: true}), WaitUnsuspected, nil
	case "diamonds":
		return NewDiamondS(), WaitQuorum, nil
	case "afplus2":
		return NewAfPlus2(), WaitUnsuspected, nil
	case "floodset":
		return baseline.NewFloodSet(), WaitUnsuspected, nil
	case "floodsetws":
		return baseline.NewFloodSetWS(), WaitUnsuspected, nil
	case "ct":
		return baseline.NewCT(), WaitUnsuspected, nil
	case "hurfinraynal":
		return baseline.NewHurfinRaynal(), WaitUnsuspected, nil
	case "amr":
		return baseline.NewAMR(), WaitUnsuspected, nil
	default:
		return nil, 0, fmt.Errorf("unknown algorithm %q", name)
	}
}
