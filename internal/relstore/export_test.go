package relstore

// QueryNaive and ResultsEqual expose the oracle executor and the result
// identity check to package relstore_test, whose tests load the Figure 1
// schema through vulndb, a package that imports relstore.
func (db *DB) QueryNaive(sql string, args ...Value) (*Result, error) {
	return db.queryNaive(sql, args...)
}

var ResultsEqual = resultsEqual
