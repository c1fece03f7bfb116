package a

// record has one field for every way the field rule can go.
type record struct {
	writeOnly int // assigned, never read: a finding
	read      int // assigned and read: live
	testRead  int // assigned; a's test file reads it: live
	counter   int // incremented, never read: a finding
	tagged    int `json:"tagged"` // assigned, never read, but tagged: live
}

// key is a map key: comparing two keys reads both fields.
type key struct{ hi, lo int }

var index = map[key]int{}

// fill writes every field; it is live because sink names it.
func fill(r *record) int {
	r.writeOnly = 1
	r.read = 2
	r.testRead = 3
	r.counter++
	r.tagged = 4
	index[key{1, 2}] = 0
	return r.read
}

var sink = fill
