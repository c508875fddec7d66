package comm

// Collective operations built from point-to-point messages, rooted at rank
// 0. Tags below 0 are reserved for collectives so user tags (>= 0) never
// collide with them.

const (
	tagBarrierUp   = -1
	tagBarrierDown = -2
	tagReduce      = -3
	tagBcast       = -4
)

// Barrier blocks until every rank has entered it. Implemented as a gather
// to rank 0 followed by a broadcast, costing 2(p-1) messages.
func (e *Endpoint) Barrier() error {
	p := e.P()
	if p == 1 {
		return nil
	}
	if e.rank == 0 {
		for r := 1; r < p; r++ {
			if _, err := e.Recv(r, tagBarrierUp); err != nil {
				return err
			}
		}
		for r := 1; r < p; r++ {
			if err := e.Send(r, tagBarrierDown, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := e.Send(0, tagBarrierUp, nil); err != nil {
		return err
	}
	_, err := e.Recv(0, tagBarrierDown)
	return err
}

// ReduceOp combines two partial values.
type ReduceOp func(a, b float64) float64

// MaxOp, MinOp and SumOp are the common reductions.
var (
	MaxOp ReduceOp = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	MinOp ReduceOp = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	SumOp ReduceOp = func(a, b float64) float64 { return a + b }
)

// AllReduce combines each rank's contribution with op and returns the
// result on every rank.
func (e *Endpoint) AllReduce(v float64, op ReduceOp) (float64, error) {
	p := e.P()
	if p == 1 {
		return v, nil
	}
	if e.rank == 0 {
		acc := v
		for r := 1; r < p; r++ {
			d, err := e.Recv(r, tagReduce)
			if err != nil {
				return 0, err
			}
			acc = op(acc, d[0])
			e.ReleaseTo(r, d)
		}
		for r := 1; r < p; r++ {
			out := e.Lease(1)
			out[0] = acc
			if err := e.Send(r, tagBcast, out); err != nil {
				return 0, err
			}
		}
		return acc, nil
	}
	up := e.Lease(1)
	up[0] = v
	if err := e.Send(0, tagReduce, up); err != nil {
		return 0, err
	}
	d, err := e.Recv(0, tagBcast)
	if err != nil {
		return 0, err
	}
	out := d[0]
	e.ReleaseTo(0, d)
	return out, nil
}

// Broadcast sends rank 0's value to every rank and returns it.
func (e *Endpoint) Broadcast(v float64) (float64, error) {
	p := e.P()
	if p == 1 {
		return v, nil
	}
	if e.rank == 0 {
		for r := 1; r < p; r++ {
			out := e.Lease(1)
			out[0] = v
			if err := e.Send(r, tagBcast, out); err != nil {
				return 0, err
			}
		}
		return v, nil
	}
	d, err := e.Recv(0, tagBcast)
	if err != nil {
		return 0, err
	}
	out := d[0]
	e.ReleaseTo(0, d)
	return out, nil
}
