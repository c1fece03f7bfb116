package core

// TakeSelfCheck returns the engine self-check violations reported in the
// worlds the named test built and forgets them, for the external tests to
// report as their own.
var TakeSelfCheck = takeSelfCheck
