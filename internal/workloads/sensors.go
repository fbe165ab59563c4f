package workloads

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/lbp"
)

// SensorFusionSource generates the Figure 16 program: `rounds` iterations
// of a parallel-sections team in which four harts each poll one sensor
// port, followed by a sequential fusion written to the actuator. The
// sensors may respond in any (non-deterministic) order; the static
// position of the reads fixes the semantics, so the fused output is
// deterministic even though the run's cycle count is not.
//
// SensorRig builds the machine-side devices.
func SensorFusionSource(rounds int) string {
	return fmt.Sprintf(`/* sensor fusion, Figure 16 */
#include <det_omp.h>
#define ROUNDS %d

int sflag[4];
int sval[4];
int s[4];
int round;
int factuator;
int aseq;

void get_sensor(int i) {
	while (lbp_poll(&sflag[i]) <= round) {}
	s[i] = sval[i];
}

void main() {
	for (round = 0; round < ROUNDS; round++) {
		#pragma omp parallel sections
		{
			#pragma omp section
			get_sensor(0);
			#pragma omp section
			get_sensor(1);
			#pragma omp section
			get_sensor(2);
			#pragma omp section
			get_sensor(3);
		}
		factuator = (s[0] + s[1] + s[2] + s[3]) / 4;
		aseq = round + 1;
	}
}
`, rounds)
}

// SensorRig is the machine side of SensorFusionSource: four sensors on
// the sflag/sval ports of the assembled program and the actuator
// watching factuator/aseq. arrivals(i) is the input schedule of sensor
// i. The devices come back in attach order (sensors 0-3, then the
// actuator), with the actuator again on its own so the caller can read
// its Writes after the run.
func SensorRig(prog *asm.Program, arrivals func(i int) []lbp.SensorEvent) ([]lbp.Device, *lbp.Actuator) {
	var devices []lbp.Device
	for i := 0; i < 4; i++ {
		devices = append(devices, &lbp.Sensor{
			Name:      fmt.Sprintf("sensor%d", i),
			ValueAddr: prog.Symbols["sval"] + uint32(4*i),
			FlagAddr:  prog.Symbols["sflag"] + uint32(4*i),
			Events:    arrivals(i),
		})
	}
	act := &lbp.Actuator{
		Name:      "actuator",
		ValueAddr: prog.Symbols["factuator"],
		SeqAddr:   prog.Symbols["aseq"],
	}
	return append(devices, act), act
}
