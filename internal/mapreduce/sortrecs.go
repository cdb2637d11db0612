// Copyright 2022 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

// This file is the unstable path of slices.SortFunc as Go 1.24.0 ships
// it (slices/zsortanyfunc.go, pdqsortCmpFunc and everything it calls,
// with xorshift and nextPowerOfTwo from slices/sort.go), specialised to
// []bufRec: every cmp(x, y) < 0 is lessRec(slab, x, y), which the
// compiler inlines. Nothing else is changed, so given comparisons with
// the same signs it makes the same moves in the same order, and records
// with equal keys land where slices.SortFunc put them
// (TestSortBufferOrderMatchesSortSlice, FuzzSortBufferOrder).

package mapreduce

import "math/bits"

// sortRecs sorts data by lessRec, as slices.SortFunc would.
func sortRecs(data []bufRec, slab []byte) {
	n := len(data)
	pdqsortRecs(data, 0, n, bits.Len(uint(n)), slab)
}

// insertionSortRecs sorts data[a:b] using insertion sort.
func insertionSortRecs(data []bufRec, a, b int, slab []byte) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && lessRec(slab, data[j], data[j-1]); j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDownRecs implements the heap property on data[lo:hi].
// first is an offset into the array where the root of the heap lies.
func siftDownRecs(data []bufRec, lo, hi, first int, slab []byte) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && lessRec(slab, data[first+child], data[first+child+1]) {
			child++
		}
		if !lessRec(slab, data[first+root], data[first+child]) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSortRecs(data []bufRec, a, b int, slab []byte) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownRecs(data, i, hi, first, slab)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDownRecs(data, lo, i, first, slab)
	}
}

// pdqsortRecs sorts data[a:b].
// The algorithm based on pattern-defeating quicksort(pdqsort), but without the optimizations from BlockQuicksort.
// pdqsort paper: https://arxiv.org/pdf/2106.05123.pdf
// limit is the number of allowed bad (very unbalanced) pivots before falling back to heapsort.
func pdqsortRecs(data []bufRec, a, b, limit int, slab []byte) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for {
		length := b - a

		if length <= maxInsertion {
			insertionSortRecs(data, a, b, slab)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSortRecs(data, a, b, slab)
			return
		}

		// If the last partitioning was imbalanced, we need to breaking patterns.
		if !wasBalanced {
			breakPatternsRecs(data, a, b)
			limit--
		}

		pivot, hint := choosePivotRecs(data, a, b, slab)
		if hint == decreasingHint {
			reverseRangeRecs(data, a, b)
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			// The idea came from Rust's implementation.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSortRecs(data, a, b, slab) {
				return
			}
		}

		// Probably the slice contains many duplicate elements, partition the slice into
		// elements equal to and elements greater than the pivot.
		if a > 0 && !lessRec(slab, data[a-1], data[pivot]) {
			mid := partitionEqualRecs(data, a, b, pivot, slab)
			a = mid
			continue
		}

		mid, alreadyPartitioned := partitionRecs(data, a, b, pivot, slab)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			pdqsortRecs(data, a, mid, limit, slab)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			pdqsortRecs(data, mid+1, b, limit, slab)
			b = mid
		}
	}
}

// partitionRecs does one quicksort partition.
// Let p = data[pivot]
// Moves elements in data[a:b] around, so that data[i]<p and data[j]>=p for i<newpivot and j>newpivot.
// On return, data[newpivot] = p
func partitionRecs(data []bufRec, a, b, pivot int, slab []byte) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for i <= j && lessRec(slab, data[i], data[a]) {
		i++
	}
	for i <= j && !lessRec(slab, data[j], data[a]) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	for {
		for i <= j && lessRec(slab, data[i], data[a]) {
			i++
		}
		for i <= j && !lessRec(slab, data[j], data[a]) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqualRecs partitions data[a:b] into elements equal to data[pivot] followed by elements greater than data[pivot].
// It assumed that data[a:b] does not contain elements smaller than the data[pivot].
func partitionEqualRecs(data []bufRec, a, b, pivot int, slab []byte) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for {
		for i <= j && !lessRec(slab, data[a], data[i]) {
			i++
		}
		for i <= j && lessRec(slab, data[a], data[j]) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSortRecs partially sorts a slice, returns true if the slice is sorted at the end.
func partialInsertionSortRecs(data []bufRec, a, b int, slab []byte) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !lessRec(slab, data[i], data[i-1]) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !lessRec(slab, data[j], data[j-1]) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !lessRec(slab, data[j], data[j-1]) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatternsRecs scatters some elements around in an attempt to break some patterns
// that might cause imbalanced partitions in quicksort.
func breakPatternsRecs(data []bufRec, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.Next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// choosePivotRecs chooses a pivot in data[a:b].
//
// [0,8): chooses a static pivot.
// [8,shortestNinther): uses the simple median-of-three method.
// [shortestNinther,∞): uses the Tukey ninther method.
func choosePivotRecs(data []bufRec, a, b int, slab []byte) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = medianAdjacentRecs(data, i, &swaps, slab)
			j = medianAdjacentRecs(data, j, &swaps, slab)
			k = medianAdjacentRecs(data, k, &swaps, slab)
		}
		// Find the median among i, j, k and stores it into j.
		j = medianRecs(data, i, j, k, &swaps, slab)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2Recs returns x,y where data[x] <= data[y], where x,y=a,b or x,y=b,a.
func order2Recs(data []bufRec, a, b int, swaps *int, slab []byte) (int, int) {
	if lessRec(slab, data[b], data[a]) {
		*swaps++
		return b, a
	}
	return a, b
}

// medianRecs returns x where data[x] is the median of data[a],data[b],data[c], where x is a, b, or c.
func medianRecs(data []bufRec, a, b, c int, swaps *int, slab []byte) int {
	a, b = order2Recs(data, a, b, swaps, slab)
	b, c = order2Recs(data, b, c, swaps, slab)
	a, b = order2Recs(data, a, b, swaps, slab)
	return b
}

// medianAdjacentRecs finds the median of data[a - 1], data[a], data[a + 1] and stores the index into a.
func medianAdjacentRecs(data []bufRec, a int, swaps *int, slab []byte) int {
	return medianRecs(data, a-1, a, a+1, swaps, slab)
}

func reverseRangeRecs(data []bufRec, a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}

type sortedHint int // hint for pdqsort when choosing the pivot

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// xorshift paper: https://www.jstatsoft.org/article/view/v008i14/xorshift.pdf
type xorshift uint64

func (r *xorshift) Next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << bits.Len(uint(length))
}
