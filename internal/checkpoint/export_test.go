package checkpoint

// CandidateSteps is AppendCandidateSteps into a fresh list, the form the
// tests compare.
func (s *Store) CandidateSteps(gridID, rank int) []int {
	return s.AppendCandidateSteps(nil, gridID, rank)
}
