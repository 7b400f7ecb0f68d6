package service

import (
	"indulgence/internal/fd"
	"indulgence/internal/model"
)

// Detector returns hosted process p's failure detector (nil for a
// remote process) — the state every instance p runs shares.
func (s *Service) Detector(p model.ProcessID) *fd.TimeoutDetector { return s.detectors[p-1] }
