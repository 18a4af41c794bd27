package uopcache

// LineBuckets exposes the line-count table's bucket count, so external tests
// can build distinct lines that share a bucket.
const LineBuckets = lineBuckets

// Population returns the number of windows resident in a set.
func (c *Cache) Population(set int) int {
	n := 0
	for _, k := range c.sets[set].keys {
		if k != 0 {
			n++
		}
	}
	return n
}

// SetUops returns the micro-ops stored in a set, summed over its residents.
func (c *Cache) SetUops(set int) int {
	n := 0
	for i, k := range c.sets[set].keys {
		if k != 0 {
			n += int(c.sets[set].slots[i].uops)
		}
	}
	return n
}
