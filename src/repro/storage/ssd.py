"""A flash-device timing model.

Constant per-request latency, no positioning cost, and internal channel
parallelism.  Absolute values follow a SATA-era consumer SSD (the
paper's Figure 10 shows 5-20x thread-time speedups over disk)."""

from repro.storage.device import BLOCK_SIZE, Device, Spindle


class SSDSpindle(Spindle):
    def __init__(
        self,
        read_latency=0.00010,
        write_latency=0.00018,
        bandwidth=400 * 1024 * 1024,  # bytes/sec per channel
        concurrency=8,
    ):
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.bandwidth = bandwidth
        self.concurrency = concurrency

    def cost_parts(self, request, now=None):
        base = self.write_latency if request.is_write else self.read_latency
        return {
            "latency": base,
            "transfer": request.nblocks * BLOCK_SIZE / float(self.bandwidth),
        }

    def service_time(self, request, now=None):
        base = self.write_latency if request.is_write else self.read_latency
        transfer = request.nblocks * BLOCK_SIZE / float(self.bandwidth)
        return base + transfer

    def fault_penalty(self, kind, request):
        """Flash read-retry / program-verify loops before the
        controller gives up: a couple dozen base latencies."""
        base = self.write_latency if request.is_write else self.read_latency
        return 24.0 * base


class SSD(Device):
    def __init__(self, **spindle_kwargs):
        super().__init__([SSDSpindle(**spindle_kwargs)])

    def describe(self):
        return "ssd"
