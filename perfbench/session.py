"""The benchmark's fixed Spark session, its teardown, and the host block.

The session settings copy the test suite's ``spark`` fixture (shuffle
partitions 64, Arrow on, broadcast joins off) on ``local[4]``. They are
part of the benchmark and stay fixed, so a library change, not a
tuned setting, is what moves the numbers. Every file Spark writes goes
under the run's own output directory.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

MASTER = "local[4]"
DRIVER_MEMORY = "3g"
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.driver.host": "127.0.0.1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
}


def prepare_env(src: Path, scratch: Path) -> None:
    """Point Python workers at ``src`` and temp files at ``scratch``.

    Must run before the JVM starts: workers inherit this environment.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + path if path else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(scratch)
    # every JVM (the launcher and the Spark driver): temp files in scratch, no
    # hsperfdata files under /tmp
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={scratch}"
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)  # the conf below is the whole truth


def session_conf(scratch: Path, event_log: Path | None) -> dict[str, str]:
    """Full conf of the benchmark session; the event log only when traced."""
    conf = {
        "spark.master": MASTER,
        "spark.driver.memory": DRIVER_MEMORY,
        **SESSION_CONF,
        "spark.local.dir": str(scratch / "spark-local"),
        "spark.sql.warehouse.dir": str(scratch / "warehouse"),
        "spark.eventLog.enabled": "false",
    }
    if event_log is not None:
        event_log.mkdir(parents=True, exist_ok=True)
        conf.update(
            {
                "spark.eventLog.enabled": "true",
                "spark.eventLog.dir": event_log.resolve().as_uri(),
                "spark.eventLog.compress": "false",
            }
        )
    return conf


def start_spark(conf: dict[str, str]):
    """Start the session; returns ``(spark, jvm_pid)``."""
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in conf.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    pid = int(spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid())
    return spark, pid


def stop_spark(spark) -> None:
    """Stop the session and wait for its JVM (and so its workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)


def _mem_total_gb() -> float | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return round(int(line.split()[1]) / 2**20, 2)
    except OSError:
        pass
    return None


def host_block() -> dict:
    """Cores, memory and library versions of the host running the benchmark."""
    import numpy
    import pandas
    import pyarrow
    import pyspark

    return {
        "cores": os.cpu_count(),
        "mem_total_gb": _mem_total_gb(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
    }
