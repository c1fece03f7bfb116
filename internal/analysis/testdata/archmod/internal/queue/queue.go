// Package queue stands in for the job queue: its API returns errors.
package queue

import "errors"

// Job is a tenant's job.
type Job struct{}

// Submit refuses a nil job.
func Submit(j *Job) error {
	if j == nil {
		panic(errors.New("nil job")) // want "a workload driver, the job API or a command panics"
	}
	return nil
}
