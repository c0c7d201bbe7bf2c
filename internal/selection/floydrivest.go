package selection

import (
	"cmp"
	"math"
	"math/rand"
)

// frSampleCutoff is the window size above which a partition round first
// narrows the window by recursively selecting inside an n^(2/3)-element
// sample; below it a plain partition round is cheaper than the sampling
// arithmetic. 600 is the constant of [FR75].
const frSampleCutoff = 600

// floydRivestInPlace reorders xs[lo:hi) so that xs[k] holds the element of
// global rank k (lo ≤ k < hi), with xs[lo:k] ≤ xs[k] ≤ xs[k+1:hi) — the
// same partial-partition contract as selectInPlace, which multiSelect's
// recursive splitting depends on. This is the classic iterative
// formulation of [FR75]: each round partitions the active window around
// xs[k] (pre-positioned by the sample recursion when the window is large),
// keeping the side containing k. Expected comparisons approach the
// information-theoretic n + min(k, n−k) + o(n). The paper's quoted O(m²)
// worst case is avoided by falling back to the introselect path after a
// round budget; the rng is used only by that fallback.
func floydRivestInPlace[T cmp.Ordered](xs []T, lo, hi, k int, rng *rand.Rand) {
	left, right := lo, hi-1 // inclusive window, the classic formulation
	budget := 4 * bitLen(hi-lo)
	for right > left {
		if right-left < smallCutoff {
			insertionSort(xs[left : right+1])
			return
		}
		if budget <= 0 {
			// Partitions keep landing far from k (adversarial or
			// duplicate-pathological input): delegate to the
			// worst-case-linear path.
			selectInPlace(xs, left, right+1, k, rng)
			return
		}
		budget--
		if right-left >= frSampleCutoff {
			// Narrow the window to ~n^(2/3) elements straddling the
			// target's expected position, per [FR75], so the partition
			// pivot xs[k] below sandwiches rank k with high probability.
			n := float64(right - left + 1)
			i := float64(k - left + 1)
			z := math.Log(n)
			s := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*s*(n-s)/n)
			if i < n/2 {
				sd = -sd
			}
			newLeft := max(left, int(float64(k)-i*s/n+sd))
			newRight := min(right, int(float64(k)+(n-i)*s/n+sd))
			floydRivestInPlace(xs, newLeft, newRight+1, k, rng)
		}
		// Two-pointer partition of [left, right] around t = xs[k]. The
		// copies of t parked at the window ends act as sentinels, so the
		// inner scans need no bounds checks.
		t := xs[k]
		i, j := left, right
		xs[left], xs[k] = xs[k], xs[left]
		if xs[right] > t {
			xs[right], xs[left] = xs[left], xs[right]
		}
		for i < j {
			xs[i], xs[j] = xs[j], xs[i]
			i++
			j--
			for xs[i] < t {
				i++
			}
			for xs[j] > t {
				j--
			}
		}
		if xs[left] == t {
			xs[left], xs[j] = xs[j], xs[left]
		} else {
			j++
			xs[j], xs[right] = xs[right], xs[j]
		}
		if j <= k {
			left = j + 1
		}
		if k <= j {
			right = j - 1
		}
	}
}
