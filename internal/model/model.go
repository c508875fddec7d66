// Package model implements the analytic performance models of §4: the
// computation and communication time of a pipelined wavefront execution
// under linear-cost communication (α + β·n per message of n elements), the
// optimal block size of Equation (1), and the β = 0 special case of
// Hiranandani et al. that the paper calls Model1.
//
// All times are normalized to the cost of computing a single element of the
// data space, as in the paper. The geometry is the paper's: an n × n data
// space block distributed across p processors in the wavefront dimension
// only, with tiles of width b along the other dimension.
package model

import (
	"fmt"
	"math"
)

// Model carries the communication cost parameters. Model1 of the paper is
// Beta == 0; Model2 is the general case.
type Model struct {
	Alpha float64 // per-message startup cost
	Beta  float64 // per-element transmission cost
}

// Model1 returns the constant-communication-cost model of Hiranandani et
// al.: β is ignored (set to zero).
func Model1(alpha float64) Model { return Model{Alpha: alpha} }

// Model2 returns the general linear-cost model.
func Model2(alpha, beta float64) Model { return Model{Alpha: alpha, Beta: beta} }

func (m Model) String() string {
	return fmt.Sprintf("model(α=%g, β=%g)", m.Alpha, m.Beta)
}

// TComp is T_comp^pipe = (nb/p)(p−1) + n²/p: the last processor may start
// after p−1 blocks of nb/p elements, and then computes its own n²/p
// elements.
func (m Model) TComp(n, p, b float64) float64 {
	return n*b/p*(p-1) + n*n/p
}

// TComm is T_comm^pipe = (α + βb)(n/b + p − 2): each of the messages on the
// critical path costs α + βb; p−1 messages precede the last processor's
// first datum and it then receives another n/b − 1.
func (m Model) TComm(n, p, b float64) float64 {
	return (m.Alpha + m.Beta*b) * (n/b + p - 2)
}

// TPipe is the modeled total time of the pipelined execution.
func (m Model) TPipe(n, p, b float64) float64 {
	return m.TComp(n, p, b) + m.TComm(n, p, b)
}

// TNonPipe models the non-pipelined (naive) execution of §3.2: the
// computation is fully serialized along the wavefront (n² element times)
// and each processor boundary adds one n-element message.
func (m Model) TNonPipe(n, p float64) float64 {
	return n*n + (p-1)*(m.Alpha+m.Beta*n)
}

// TSerial is the uniprocessor time, n².
func (m Model) TSerial(n float64) float64 { return n * n }

// Speedup is the modeled speedup of the pipelined execution over the
// non-pipelined execution, the quantity plotted in Figures 5 and 7.
func (m Model) Speedup(n, p, b float64) float64 {
	return m.TNonPipe(n, p) / m.TPipe(n, p, b)
}

// OptimalBlock is Equation (1): b = sqrt(αnp / ((pβ + n)(p − 1))).
func (m Model) OptimalBlock(n, p float64) float64 {
	if p <= 1 {
		return n
	}
	return math.Sqrt(m.Alpha * n * p / ((p*m.Beta + n) * (p - 1)))
}

// TileWidth is OptimalBlock as a width a run can use: rounded to the
// nearest integer and clamped to [1, n].
func (m Model) TileWidth(n, p int) int {
	b := int(math.Round(m.OptimalBlock(float64(n), float64(p))))
	return max(1, min(b, n))
}

// OptimalBlockApprox is the paper's approximation sqrt(αn/(pβ + n)); with
// β = 0 it reduces to Hiranandani's b = sqrt(α).
func (m Model) OptimalBlockApprox(n, p float64) float64 {
	return math.Sqrt(m.Alpha * n / (p*m.Beta + n))
}

// OptimalBlockExact solves the true stationarity condition of TPipe,
// −αn/b² + β(p−2) + n(p−1)/p = 0, without the paper's (p−2) ≈ (p−1)
// simplification.
func (m Model) OptimalBlockExact(n, p float64) float64 {
	denom := m.Beta*(p-2) + n*(p-1)/p
	if denom <= 0 {
		return n
	}
	return math.Sqrt(m.Alpha * n / denom)
}

// OptimalBlockNumeric scans integer block sizes 1..maxB and returns the
// minimizer of TPipe, an oracle for validating the closed forms.
func (m Model) OptimalBlockNumeric(n, p float64, maxB int) int {
	best, bestT := 1, math.Inf(1)
	for b := 1; b <= maxB; b++ {
		t := m.TPipe(n, p, float64(b))
		if t < bestT {
			best, bestT = b, t
		}
	}
	return best
}

// FitAlphaBeta recovers α and β from two message-cost measurements by
// solving the 2×2 linear system cost = α + β·size. It is the calibration
// step of dynamic block-size selection. The two sizes must differ.
func FitAlphaBeta(size1 int, cost1 float64, size2 int, cost2 float64) (alpha, beta float64, err error) {
	if size1 == size2 {
		return 0, 0, fmt.Errorf("model: cannot fit α,β from equal message sizes %d", size1)
	}
	beta = (cost2 - cost1) / float64(size2-size1)
	alpha = cost1 - beta*float64(size1)
	return alpha, beta, nil
}
