package pipeline

import (
	"fmt"
	"time"

	"wavefront/internal/comm"
	"wavefront/internal/model"
)

// This file implements the dynamic block-size selection the paper's
// conclusion proposes: because the optimal b depends on non-static
// parameters (problem size, processor count, machine costs), the runtime
// probes the machine's α and β at startup and applies Equation (1).

// Probe measures the communication parameters of this process's message
// substrate by timing round trips of two message sizes between two ranks
// and fitting cost = α + β·size. Costs are returned in seconds.
func Probe(rounds int) (alpha, beta float64, err error) {
	if rounds < 1 {
		rounds = 1
	}
	const small, large = 8, 4096
	timeSize := func(sz int) (float64, error) {
		topo, err := comm.NewTopology(2)
		if err != nil {
			return 0, err
		}
		defer topo.Close()
		payload := make([]float64, sz)
		var elapsed time.Duration
		err = topo.Run(func(e *comm.Endpoint) error {
			peer := 1 - e.Rank()
			const warm = 3 // untimed round trips that warm the links up
			var start time.Time
			for i := -warm; i < rounds; i++ {
				if i == 0 {
					start = time.Now()
				}
				if e.Rank() == 1 {
					if _, err := e.Recv(peer, i); err != nil {
						return err
					}
				}
				if err := e.Send(peer, i, payload); err != nil {
					return err
				}
				if e.Rank() == 0 {
					if _, err := e.Recv(peer, i); err != nil {
						return err
					}
				}
			}
			if e.Rank() == 0 {
				elapsed = time.Since(start)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		// One direction of one round trip.
		return elapsed.Seconds() / float64(2*rounds), nil
	}
	c1, err := timeSize(small)
	if err != nil {
		return 0, 0, err
	}
	c2, err := timeSize(large)
	if err != nil {
		return 0, 0, err
	}
	alpha, beta, err = model.FitAlphaBeta(small, c1, large, c2)
	if err != nil {
		return 0, 0, err
	}
	if alpha < 0 {
		alpha = 0 // timing noise can push the intercept negative
	}
	if beta < 0 {
		beta = 0
	}
	return alpha, beta, nil
}

// ChooseBlock applies Equation (1) with machine costs normalized to the
// per-element compute time: alpha and beta are in seconds, elemTime is the
// measured seconds per data-space element. The result is clamped to
// [1, n].
func ChooseBlock(n, p int, alpha, beta, elemTime float64) (int, error) {
	if elemTime <= 0 {
		return 0, fmt.Errorf("pipeline: element time must be positive, got %g", elemTime)
	}
	return model.Model2(alpha/elemTime, beta/elemTime).TileWidth(n, p), nil
}
