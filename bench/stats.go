package bench

import (
	"math"
	"math/bits"
	"sort"
)

// latHist is a log-linear latency histogram over nanoseconds: each power
// of two is split into histSub equal sub-buckets, so a bucket is at most
// 1/histSub (0.8 %) of its value wide. Recording is one array increment,
// cheap enough for the 2 µs cached-read loop, and memory is fixed however
// long the run.
type latHist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSub     = 128
	histSubBits = 7
	// histOctaves covers up to 2^(histOctaves+histSubBits-1) ns, about
	// 4.6 minutes; longer samples land in the last bucket.
	histOctaves = 32
	histBuckets = histOctaves * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	v := uint64(ns)
	exp := bits.Len64(v) - 1 - histSubBits // >= 0
	idx := (exp+1)*histSub + int((v>>uint(exp))&(histSub-1))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// histBounds returns bucket idx's half-open range [lo, hi) in ns.
func histBounds(idx int) (lo, hi float64) {
	if idx < histSub {
		return float64(idx), float64(idx + 1)
	}
	exp := idx/histSub - 1
	sub := idx % histSub
	lo = float64(uint64(histSub+sub) << uint(exp))
	return lo, lo + float64(uint64(1)<<uint(exp))
}

func (h *latHist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0..1) in ns, interpolating linearly
// inside the bucket that holds the target rank, so the result moves
// continuously with the data instead of snapping to bucket edges.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := histBounds(len(h.counts) - 1)
	return hi
}

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks. vals is sorted in place.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := p / 100 * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}

// median returns the middle of vals (the mean of the middle two for an
// even count). vals is sorted in place.
func median(vals []float64) float64 { return percentile(vals, 50) }

// interval is a half-open span of time in ns.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by ivs, counting overlapping
// stretches once, after clipping each to [lo, hi]. ivs is sorted in place.
func unionLen(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}
