// The paper's main experiment (Section 7): one of the five matrix
// multiplication versions on an LBP machine sized h/4 cores.
//
//	go run ./examples/matmul -variant tiled -harts 64
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/figures"
	"repro/internal/workloads"
)

func main() {
	variant := flag.String("variant", "base", "base|copy|distributed|d+c|tiled")
	harts := flag.Int("harts", 16, "team size (16, 64 or 256)")
	flag.Parse()
	v := workloads.MatmulVariant(*variant)
	row, err := figures.Runner{}.RunMatmul(v, *harts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %d cores (%d harts): X(%dx%d) * Y(%dx%d) -> Z verified\n",
		v, *harts/4, *harts, *harts, *harts/2, *harts/2, *harts)
	fmt.Printf("cycles:  %d\n", row.Cycles)
	fmt.Printf("retired: %d\n", row.Retired)
	fmt.Printf("IPC:     %.2f (peak %d)\n", row.IPC, *harts/4)
	fmt.Printf("shared accesses: %d remote, %d local\n", row.Remote, row.Local)
}
