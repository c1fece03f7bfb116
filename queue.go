package nmad

import (
	"nmad/internal/queue"
)

// Multi-tenant job queue: the ingestion layer that admits many
// independent client workloads onto one engine with per-tenant priority
// classes, weighted fair-share dispatch and aging. See internal/queue
// for the scheduling discipline; counters land in Stats
// (JobsAdmitted, PeakJobWait, ...).

// Aliases into internal/queue.
type (
	// JobQueue is the bounded multi-tenant dispatcher.
	JobQueue = queue.Queue
	// Job is one submitted unit of work.
	Job = queue.Job
	// Tenant is one registered workload source.
	Tenant = queue.Tenant
	// TenantClass is a tenant's priority class.
	TenantClass = queue.Class
	// TenantStats is the per-tenant slice of the queue counters.
	TenantStats = queue.TenantStats
)

// Tenant priority classes, lowest to highest.
const (
	ClassBulk    = queue.ClassBulk
	ClassNormal  = queue.ClassNormal
	ClassLatency = queue.ClassLatency
)

// Queue sentinels; match with errors.Is.
var (
	ErrQueueFull     = queue.ErrQueueFull
	ErrUnknownTenant = queue.ErrUnknownTenant
	// ErrBadConfig: NewQueue was given no tenant, a duplicate or unnamed
	// one, a weight below 1, a class out of range, or a negative bound.
	ErrBadConfig = queue.ErrBadConfig
)

// QueueOption configures NewQueue.
type QueueOption func(*queue.Config)

// WithQueueCapacity bounds the backlog across all tenants; submissions
// beyond it are rejected with ErrQueueFull.
func WithQueueCapacity(n int) QueueOption {
	return func(c *queue.Config) { c.Capacity = n }
}

// WithQueueWorkers bounds concurrently running jobs.
func WithQueueWorkers(n int) QueueOption {
	return func(c *queue.Config) { c.Workers = n }
}

// WithQueueAging sets the waiting time that lifts a starved tenant's
// effective class by one level.
func WithQueueAging(d Time) QueueOption {
	return func(c *queue.Config) { c.Aging = d }
}

// WithTenant declares a tenant with a fair-share weight and a priority
// class. At least one tenant is required.
func WithTenant(name string, weight int, class TenantClass) QueueOption {
	return func(c *queue.Config) {
		c.Tenants = append(c.Tenants, queue.TenantSpec{Name: name, Weight: weight, Class: class})
	}
}

// NewQueue builds a job queue dispatching onto e's world. Jobs submitted
// under a latency-class tenant should attach tenant.SendOptions() to
// their sends so the engine's priority scheduling matches the
// queue-level class.
func NewQueue(e *Engine, opts ...QueueOption) (*JobQueue, error) {
	var cfg queue.Config
	for _, o := range opts {
		o(&cfg)
	}
	return queue.New(e, cfg)
}
