package dep

import (
	"fmt"

	"wavefront/internal/grid"
)

// Skew is a legal hyperplane (wavefront) schedule for the two innermost
// levels of a derived loop nest. With A = Perm[rank-2] and B = Perm[rank-1],
// and iteration coordinates ia, ib counted from each dimension's direction
// start (so a HighToLow loop counts down in array terms but up in iteration
// terms), the skewed execution order is
//
//	for wave w = 0, 1, 2, ...:  execute every point with Ca*ia + Cb*ib == w
//
// All points on one wave are mutually independent, so each wave may run as
// an unconstrained vector pass; successive waves run in order. Legality is
// the hyperplane condition of the classic skewing transformation: every
// dependence distance (da, db) that both outer loops leave uncarried must
// have strictly positive dot product Ca*da + Cb*db, so its source lies on a
// strictly earlier wave.
type Skew struct {
	// A and B are the dimensions of the two innermost loop levels (A the
	// outer of the pair), copied from the LoopSpec the skew was derived for.
	A, B int
	// Ca and Cb are the hyperplane coefficients: positive, coprime, and as
	// small as the dependences allow ((1,1) for all the paper's workloads).
	Ca, Cb int
}

func (s Skew) String() string {
	return fmt.Sprintf("wave = %d*i%d + %d*i%d", s.Ca, s.A, s.Cb, s.B)
}

// NoSkewError reports that no positive skew of the two innermost loop levels
// satisfies the block's dependences, carrying an in-plane witness UDV that
// every candidate hyperplane failed to carry. The caller falls back to the
// point walk, which follows the derived loop order point by point.
type NoSkewError struct {
	Witness UDV
}

func (e *NoSkewError) Error() string {
	return fmt.Sprintf("dep: no positive skew of the inner loop pair carries %s", e.Witness)
}

// maxSkewCoeff bounds the hyperplane coefficient search. Real dependence
// distances are tiny (the paper's stencils are all distance 1), so any skew
// a workload needs is found well inside this bound; a UDV set that needs
// more is as good as over-constrained for vectorization purposes.
const maxSkewCoeff = 4

// DeriveSkew finds the smallest legal hyperplane for the two innermost
// levels of loop, which must itself satisfy udvs (it came from Derive). Only
// in-plane dependences constrain the skew: a UDV with a nonzero component
// along an outer level is carried by that outer loop and never connects two
// points of one (A, B) plane. Distances are direction-normalized exactly as
// LoopSpec.Satisfies normalizes them. It returns a *NoSkewError when no
// positive coefficient pair up to maxSkewCoeff works, with a witness UDV.
func DeriveSkew(rank int, udvs []UDV, loop LoopSpec) (Skew, error) {
	if rank < 2 || len(loop.Perm) != rank {
		return Skew{}, fmt.Errorf("dep: skew needs a rank-%d nest with two inner levels", rank)
	}
	a, b := loop.Perm[rank-2], loop.Perm[rank-1]
	// Collect the direction-normalized in-plane distances.
	type pair struct{ da, db int }
	var plane []pair
	var srcs []UDV
	for _, u := range udvs {
		if u.Zero() || len(u.Dist) != rank {
			continue
		}
		outer := false
		for d, c := range u.Dist {
			if d != a && d != b && c != 0 {
				outer = true
				break
			}
		}
		if outer {
			continue
		}
		da, db := u.Dist[a], u.Dist[b]
		if loop.Dirs[a] == grid.HighToLow {
			da = -da
		}
		if loop.Dirs[b] == grid.HighToLow {
			db = -db
		}
		plane = append(plane, pair{da, db})
		srcs = append(srcs, u)
	}
	// Smallest coefficients first: (1,1) before (1,2)/(2,1), and so on.
	best := -1
	for sum := 2; sum <= 2*maxSkewCoeff; sum++ {
		for ca := 1; ca < sum; ca++ {
			cb := sum - ca
			if ca > maxSkewCoeff || cb > maxSkewCoeff || gcd(ca, cb) != 1 {
				continue
			}
			ok := true
			for i, p := range plane {
				if ca*p.da+cb*p.db <= 0 {
					ok = false
					if best < 0 {
						best = i
					}
					break
				}
			}
			if ok {
				return Skew{A: a, B: b, Ca: ca, Cb: cb}, nil
			}
		}
	}
	w := UDV{}
	if best >= 0 {
		w = srcs[best]
	} else if len(srcs) > 0 {
		w = srcs[0]
	}
	return Skew{}, &NoSkewError{Witness: w}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
