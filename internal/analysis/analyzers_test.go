package analysis

import "testing"

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determ", determinismAnalyzer)
}

func TestDeterminismNegativeControl(t *testing.T) {
	runFixture(t, "nondeterm", determinismAnalyzer)
}

func TestSentinelCmpFixture(t *testing.T) {
	runFixture(t, "sentinel", sentinelCmpAnalyzer)
}

func TestSPILeakFixture(t *testing.T) {
	runFixture(t, "spileak", spiLeakAnalyzer)
}
