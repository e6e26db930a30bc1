"""One benchmark repetition: a fresh process that does what `spikecl run` does.

    python3 bench/child.py SPEC_JSON SEED OUT_DIR T0 MODE

SPEC_JSON holds the workload's config path and overrides; T0 is the
parent's ``time.monotonic()`` reading just before it started this process
(the clock is system-wide on Linux). MODE is "run", "trace" (run under the
tracer) or "setup" (stop once the stream is built; a warm-up). The program
writes into OUT_DIR/run; this process writes its timings, and the spans
when tracing, to OUT_DIR/child.json. Correctness checks that need the
program run after the timed part.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import yaml  # noqa: E402

from spikecl import runner  # noqa: E402

PROBE_BATCH = 16


def _merge(base: dict, overrides: dict) -> dict:
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


def check_chip_registers(config, checkpoint: str, n_heads: int, seed: int) -> list[str]:
    """Quantize the saved checkpoint, upload it to a fresh chip and compare
    the handshake's final-layer registers with chip_twin_counts on a probe
    batch of random spikes, once per trained head."""
    from spikecl.chip import (
        ChipModel,
        chip_forward,
        chip_twin_counts,
        quantize_network,
        read_layer_spikes,
        serialize_image,
        upload_config,
    )
    from spikecl.rng import RngStream
    from spikecl.snn import load_network

    net = load_network(checkpoint)
    probe_rng = RngStream(seed).fork("bench/probe")
    steps, width = config.encoder.timesteps, net.layer_sizes[0]
    problems = []
    for head in range(n_heads) if net.multi_head else [None]:
        image = quantize_network(net, config.quant, task=head)
        chip = ChipModel()
        upload_config(chip, serialize_image(image))
        probe = probe_rng.fork(f"head{head}").bernoulli(0.2, (PROBE_BATCH, steps, width))
        twin = chip_twin_counts(image, probe)
        mismatched = 0
        for i in range(PROBE_BATCH):
            chip_forward(chip, probe[i])
            registers = [read_layer_spikes(chip, l) for l in range(len(image.quantized))]
            mismatched += int(not (registers[-1] == twin[i]).all())
        if mismatched:
            problems.append(f"head {head}: chip registers differ from twin counts "
                            f"on {mismatched} of {PROBE_BATCH} probe samples")
    return problems


def main() -> None:
    spec_json, seed, out_dir, t0, mode = sys.argv[1:6]
    spec, seed, t0 = json.loads(spec_json), int(seed), float(t0)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(t0)
        tracer.install()

    with open(os.path.join(ROOT, spec["config"])) as f:
        raw = _merge(yaml.safe_load(f), spec["overrides"])
    raw.update(seeds=[seed], output_dir=os.path.join(out_dir, "run"))
    config = runner.config_from_dict(raw)
    stream = runner.build_stream(config)
    t_ready = time.monotonic()
    if mode == "setup":
        with open(os.path.join(out_dir, "child.json"), "w") as f:
            json.dump({"setup_s": t_ready - t0}, f)
        return
    runner.run_experiment(config, verbose=False)
    t_done = time.monotonic()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.finish(t_done)

    result = {
        "setup_s": t_ready - t0,
        "wall_s": t_done - t0,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "trained_samples": config.epochs_per_task * sum(len(t.train_y) for t in stream.tasks),
        "problems": [],
    }
    if config.chip:
        checkpoint = os.path.join(config.output_dir, f"checkpoint_seed{seed}.bin")
        result["problems"] = check_chip_registers(config, checkpoint, len(stream.tasks), seed)
    if tracer is not None:
        result["spans"] = tracer.spans
        result["installed"] = sorted(tracer.installed)
    with open(os.path.join(out_dir, "child.json"), "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
