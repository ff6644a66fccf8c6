"""Workload shapes and fixed settings shared by run.py and the worker.

Sizes are chosen so that one run of every workload, set-up and checks
included, ends in well under a minute on a 2-core machine, while each
timed part still holds enough units of work for a median and a tail.
"""

from __future__ import annotations

from gen import FleetSpec

#: Mining thresholds for every workload (``GatheringParameters`` fields).
PARAMS = dict(eps=200.0, min_points=5, mc=10, delta=450.0, kc=10, kp=8, mp=8, time_step=1.0)
# delta is above the paper's 300 m: a pair of passers-by chained onto a
# dwelling group can reach ~370 m from it, and at 300 m such a pair splits
# a planted crowd into pieces shorter than kc.

#: Dense CSV trace: every object sampled at every snapshot.
TRACE_BATCH = FleetSpec(objects=800, snapshots=100, side=20000.0, events=24, members=15, dwell=30)
#: Share of injected corrupt rows in the trace-batch CSV.
CORRUPT_SHARE = 0.01

#: Live feed: time-ordered with arrival jitter, late and garbage fixes.
STREAM_REPLAY = FleetSpec(
    objects=1000, snapshots=280, side=16000.0, events=16, members=15, dwell=30
)
STREAM_WINDOW = 2
STREAM_SLACK = 2
# Jitter, late and garbage shares are assumptions, not a measured feed (see
# the README): small shares that exercise every late-point and firewall path.
STREAM_JITTER = 1.5
STREAM_LATE_SHARE = 0.01
STREAM_LATE_DELAY = 8.0
STREAM_GARBAGE_SHARE = 0.005
#: Stream throughput is the median rate over chunks of this many fed points.
STREAM_CHUNK = 10000

#: Sparse fleet (one fix per 40 snapshots, so phase 1 interpolates most
#: positions) whose mined result is behind the server.
SERVE_QUERY = FleetSpec(
    objects=4000, snapshots=120, side=48000.0, events=120, members=12, dwell=30, sample_every=40
)
SERVE_MIX_REQUESTS = 40000
#: Popular filters per filter kind (bbox, time, object) that requests repeat.
SERVE_POPULAR_KEYS = 24
#: Cursor-paged listings that page requests walk through.
SERVE_PAGE_WALKS = 8
#: Open-loop request rate (requests/s), fixed and never recomputed, so a
#: faster server shows as lower latency at the same load.  Closed-loop
#: capacity on this mix measured 600-1500 requests/s on a shared 2-vCPU VM,
#: depending on how busy its host was; 200 is a third of the lowest figure.
SERVE_RATE = 200.0
#: Share of ``--seconds`` given to open-loop blocks; closed-loop stretches,
#: one after each block, get the rest.
SERVE_OPEN_SHARE = 0.75
#: The open-loop phase sends whole blocks of SERVE_BLOCK requests, at least
#: SERVE_MIN_OPEN_REQUESTS: p99 is taken per block (10 samples beyond it)
#: and the median block is reported.
SERVE_MIN_OPEN_REQUESTS = 3000
SERVE_BLOCK = 1000
#: A block is sent in parts of this many requests, with a pause between
#: parts in which the host may be sampled.
SERVE_PART = 250
#: Closed-loop throughput is the median rate over chunks of this many
#: requests, in stretches of at least SERVE_MIN_CLOSED_S seconds in all.
SERVE_THROUGHPUT_CHUNK = 250
SERVE_MIN_CLOSED_S = 4.0
#: In-process ``PatternApp`` requests of a traced run, in alternating
#: blocks of SERVE_APP_BLOCK.
SERVE_APP_REQUESTS = 3000
SERVE_APP_BLOCK = 500
#: Client connections of both load phases (driven from one thread).
SERVE_CONNECTIONS = 2
#: Fixed sample of answers compared with direct store queries.
SERVE_SAMPLE = 24

#: Read-back queries of each freshly written store on trace-batch, and the
#: fewest a run makes in all (3 blocks of 1,000 for the p99).
READBACK_PER_JOB = 500
READBACK_QUERIES = 3000

#: Untimed warm start, then this many timed fresh-process starts.
SETUP_STARTS = 5
#: Timed server set-ups (store write, pool, server, first /healthz).
SERVE_SETUPS = 5
#: Checkpoint restores timed for stream-replay's set-up.
STREAM_RESTORES = 15
#: trace-batch runs at least this many jobs, however short ``--seconds``.
MIN_JOBS = 3
#: Stream-replay replays the second half at least this many times.
MIN_REPLAYS = 2
#: ... and until at least this many windows have closed (3 blocks of 100
#: for the p90).
STREAM_MIN_CLOSES = 300
#: A traced run measures at least this many traced/untraced pairs of units.
MIN_UNIT_PAIRS = 2
#: One calibration kernel run (see calibrate.py) at most this often, at the
#: first pause in the work after the interval has passed; a run too short
#: for CALIBRATIONS_MIN of them takes the rest at its end.
CALIBRATION_INTERVAL_S = 0.6
CALIBRATIONS_MIN = 10
