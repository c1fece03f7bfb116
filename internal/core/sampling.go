package core

import "nmad/internal/sim"

// Network performance sampling. The paper's strategies consume "the
// nominal and functional characteristics of the underlying network"
// (§3.2); the nominal part comes from the driver capability report, the
// functional part from runtime observation. The engine timestamps every
// transaction it hands to a rail and keeps an exponentially weighted
// estimate of the achieved bandwidth, which the multi-rail strategy
// prefers over the nominal figure once enough traffic has flowed (the
// sampling mechanism of the NewMadeleine distribution).

// samplerMinBytes filters out transactions whose duration measures fixed
// overheads rather than throughput.
const samplerMinBytes = 4 << 10

// samplerAlpha is the EWMA smoothing factor: high enough to track load
// changes, low enough to ride out single-packet jitter.
const samplerAlpha = 0.25

// samplerWarmup is how many qualifying observations are needed before
// the estimate is trusted.
const samplerWarmup = 3

// railSampler estimates one rail's achieved bandwidth.
type railSampler struct {
	rate    float64 // EWMA bytes/second
	samples int
}

// observe records one completed transaction of the given payload size.
func (s *railSampler) observe(bytes int, dur sim.Time) {
	if bytes < samplerMinBytes || dur <= 0 {
		return
	}
	rate := float64(bytes) / dur.Seconds()
	if s.samples == 0 {
		s.rate = rate
	} else {
		s.rate = samplerAlpha*rate + (1-samplerAlpha)*s.rate
	}
	s.samples++
}

// estimate returns the sampled bandwidth in bytes/second, or 0 when not
// enough traffic has been observed yet.
func (s *railSampler) estimate() float64 {
	if s.samples < samplerWarmup {
		return 0
	}
	return s.rate
}

// SampledBandwidth reports the measured bandwidth of a rail in bytes per
// second, or 0 while the sampler is still warming up (and for a rail the
// engine does not have). Strategies fall back to the nominal capability
// figure in that case.
func (e *Engine) SampledBandwidth(drv int) float64 {
	if drv < 0 || drv >= len(e.rails) {
		return 0
	}
	return e.rails[drv].sampler.estimate()
}
