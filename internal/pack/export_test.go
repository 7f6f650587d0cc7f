package pack

// TwoPhaseFixture exposes twoPhaseFixture to the external test package,
// which may import internal/verify (verify imports pack).
var TwoPhaseFixture = twoPhaseFixture
