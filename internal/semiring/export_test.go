package semiring

// RandomDistMap exports randomDistMap to the law tests of package
// semiring_test.
var RandomDistMap = randomDistMap
