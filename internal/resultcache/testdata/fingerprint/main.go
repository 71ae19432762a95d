// Command fingerprint prints resultcache.Fingerprint() for the build
// fingerprint tests; stamp exists to be set with -ldflags=-X.
package main

import (
	"fmt"

	"tracerebase/internal/resultcache"
)

var stamp = "default"

func main() {
	_ = stamp
	fmt.Println(resultcache.Fingerprint())
}
