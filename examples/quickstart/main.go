// Quickstart: synthesize the paper's Fig. 1 module through the public
// API, inspect the s-graph, the generated C, the object code and the
// cost estimate, then execute a few reactions on the virtual target.
package main

import (
	"fmt"
	"log"

	"polis"
	"polis/internal/vm"
)

const simple = `
module simple:        % the running example of the paper (Fig. 1)
input c : integer;    % valued input event
output y;             % pure output event
var a : integer in
loop
  await c;            % wait for c to be present
  if a = ?c then      % compare the state with the event value
    a := 0; emit y;
  else
    a := a + 1;
  end if
end loop
end var
end module
`

func main() {
	art, err := polis.SynthesizeSource(simple, polis.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== synthesis report ==")
	fmt.Print(art.Report())

	fmt.Println("\n== s-graph (Fig. 1) ==")
	fmt.Print(art.SGraph.Dot())

	fmt.Println("\n== generated C ==")
	fmt.Print(art.C)

	fmt.Println("\n== object code ==")
	fmt.Print(art.Listing)

	// Execute three reactions on the virtual CPU: c=2 arrives three
	// times; the third match (a counts 0,1,2) emits y.
	fmt.Println("\n== execution on the virtual target ==")
	host := &demoHost{value: 2}
	m := vm.NewMachine(vm.HC11(), art.Program.Words, host)
	for step := 1; step <= 3; step++ {
		host.present = true
		cycles, err := m.Run(art.Program, art.CFSM.Name+"_react")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reaction %d: %d cycles, emitted y: %v\n", step, cycles, host.emittedY)
		host.emittedY = false
	}
}

// demoHost feeds the event c with a fixed value and observes y.
type demoHost struct {
	present  bool
	value    int64
	emittedY bool
}

func (h *demoHost) Present(sig int) bool { return h.present }
func (h *demoHost) Value(sig int) int64  { return h.value }
func (h *demoHost) Emit(sig int)         { h.emittedY = true }
func (h *demoHost) EmitValue(sig int, v int64) {
	h.emittedY = true
}
