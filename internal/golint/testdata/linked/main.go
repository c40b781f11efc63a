// Command linked is the fixture TestEveryFunctionLinkedFixture builds:
// of the functions in package lib, only Unused is linked into nothing.
package main

import (
	"fmt"

	"linked/lib"
)

type namer interface{ Name() string }

func main() {
	b := &lib.Box[int]{}
	b.Put(1)
	var n namer = &lib.Val{}
	fmt.Println(b.Get(), n.Name())
}
