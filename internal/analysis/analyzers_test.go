package analysis

import "testing"

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determ", DeterminismAnalyzer)
}

func TestDeterminismNegativeControl(t *testing.T) {
	runFixture(t, "nondeterm", DeterminismAnalyzer)
}

func TestSentinelCmpFixture(t *testing.T) {
	runFixture(t, "sentinel", SentinelCmpAnalyzer)
}

func TestSPILeakFixture(t *testing.T) {
	runFixture(t, "spileak", SPILeakAnalyzer)
}
