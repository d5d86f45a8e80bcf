#!/usr/bin/env python
"""Case 1 (§II): debugging the search engine across storage systems.

A system engineer chases a spike of HTTP 500s.  The evidence is spread
across *three* storage domains — exactly the situation that motivated
Feisu:

* fresh service logs on each online machine's **local filesystem**
  (nested json, flattened to columns on ingest);
* the crawled-page table on the **HDFS-like** global store;
* operator annotations in the **KV label store**.

One SQL endpoint queries all of them; no data is copied into a central
warehouse first.

Run with::

    python examples/debug_search_engine.py
"""

import numpy as np

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.client import FeisuClient
from repro.workload.conversion import start_conversion_daemons, write_raw_records
from repro.workload.loggen import LogIngestor, generate_log_records


def main() -> None:
    cluster = FeisuCluster(FeisuConfig(datacenters=2, racks_per_datacenter=2, nodes_per_rack=4))
    cluster.create_user("sysadmin", admin=True)
    client = FeisuClient(cluster, "sysadmin")

    # --- substrate 1: service logs stay on the producing nodes -----------
    ingestor = LogIngestor(cluster, table_name="service_logs")
    for hour in range(6):
        ingestor.ingest_hour(hour, records_per_node=400, seed=4)
    print(f"ingested {ingestor.table.num_rows} log rows across {len(cluster.nodes)} nodes' local FS\n")

    # --- substrate 2: the page table on the global HDFS-like store -------
    rng = np.random.default_rng(7)
    n_pages = 40  # one metadata row per crawled page
    pages = {
        "page": np.array([f"/p{i}" for i in range(n_pages)], dtype=object),
        "owner_service": np.array(
            [["search", "maps", "baike"][i % 3] for i in range(n_pages)], dtype=object
        ),
        "size_kb": rng.integers(1, 500, n_pages),
    }
    cluster.load_table(
        "pages",
        Schema.of(page=DataType.STRING, owner_service=DataType.STRING, size_kb=DataType.INT64),
        pages,
        storage="storage-a",
        block_rows=64,
    )

    # --- step 1: which hour went bad? ------------------------------------
    print("== 500s per hour (node-local logs, no centralization) ==")
    by_hour = client.query(
        "SELECT hour, COUNT(*) AS errors FROM service_logs "
        "WHERE request.status = 500 GROUP BY hour ORDER BY hour"
    )
    print(client.format_table(by_hour), "\n")

    # --- step 2: drill down, trial-and-error (this is what SmartIndex
    # accelerates: each refinement reuses the previous predicates) --------
    print("== Worst pages in the bad hours ==")
    worst = client.query(
        "SELECT request.page AS page, COUNT(*) AS errors "
        "FROM service_logs WHERE request.status = 500 AND hour >= 3 "
        "GROUP BY page ORDER BY errors DESC LIMIT 5"
    )
    print(client.format_table(worst), "\n")

    # --- step 3: join against the page table on a different system -------
    print("== Which service owns the failing pages? ==")
    owners = client.query(
        "SELECT owner_service, COUNT(*) AS failing_requests "
        "FROM service_logs JOIN pages ON request.page = pages.page "
        "WHERE request.status = 500 "
        "GROUP BY owner_service ORDER BY failing_requests DESC"
    )
    print(client.format_table(owners), "\n")

    # --- step 4: latency check on the suspect service's traffic ----------
    print("== Latency profile for 'search'-owned pages ==")
    latency = client.query(
        "SELECT AVG(latency_ms) AS avg_ms, MAX(latency_ms) AS worst_ms, COUNT(*) AS requests "
        "FROM service_logs JOIN pages ON request.page = pages.page "
        "WHERE owner_service = 'search'"
    )
    print(client.format_table(latency), "\n")

    stats = cluster.aggregate_index_stats()
    print(
        f"SmartIndex during the investigation: {stats.hits + stats.complement_hits} hits / "
        f"{stats.lookups} lookups (drill-down sessions repeat predicates, §IV-A)"
    )

    # --- step 5: the other join shapes -----------------------------------
    # The outer join keeps every page, requested or not; of the pages
    # requested in the last hour, one whose worst status there is below
    # 500 served that hour cleanly.
    print("\n== Pages with no failing requests in the last hour ==")
    clean = client.query(
        "SELECT pages.page AS path, owner_service, MAX(request.status) AS worst "
        "FROM pages LEFT JOIN service_logs ON pages.page = request.page "
        "WHERE hour = 5 GROUP BY pages.page, owner_service HAVING MAX(request.status) < 500 "
        "ORDER BY path"
    )
    print(client.format_table(clean), "\n")

    # A non-equi ON: which latency budgets did the failing requests blow?
    cluster.load_table(
        "latency_budgets",
        Schema.of(tier=DataType.STRING, budget_ms=DataType.FLOAT64),
        {
            "tier": np.array(["interactive", "standard", "batch"], dtype=object),
            "budget_ms": np.array([50.0, 150.0, 400.0]),
        },
        storage="storage-b",
    )
    print("== Failing requests over each latency budget ==")
    breaches = client.query(
        "SELECT tier, COUNT(*) AS over_budget "
        "FROM service_logs JOIN latency_budgets ON latency_ms > budget_ms "
        "WHERE request.status = 500 GROUP BY tier ORDER BY over_budget DESC"
    )
    print(client.format_table(breaches), "\n")

    # §III-A's comma join, its equality in the WHERE: step 3's answer again.
    print("== Step 3 as a comma join ==")
    comma = client.query(
        "SELECT owner_service, COUNT(*) AS failing_requests "
        "FROM service_logs, pages WHERE request.page = pages.page "
        "AND request.status = 500 "
        "GROUP BY owner_service ORDER BY failing_requests DESC"
    )
    print(client.format_table(comma))

    # --- step 6: the next hour arrives raw -------------------------------
    # Online services append json lines to their local disks; each node's
    # light-weight conversion daemon (§III-B) turns a new file into a
    # block of one table on its next sweep.  A torn file is kept, not
    # converted, and the daemon goes on with the rest.
    daemons = start_conversion_daemons(cluster, table_name="fresh_logs", period_s=10.0)
    for idx, node in enumerate(cluster.nodes[:2]):
        write_raw_records(cluster, node, "h6.jsonl", generate_log_records(400, idx, 6, seed=4))
    torn_on = cluster.nodes[0]
    cluster.local_fs.write(f"/raw/{torn_on}/h6-torn.jsonl", b'{"hour": 6', node=torn_on)
    cluster.sim.run(until=cluster.sim.now + 15.0)
    converted = sum(d.stats.files_converted for d in daemons)
    kept = len(cluster.local_fs.list_paths("/raw/"))
    print(f"\n== 500s in the hour that arrived raw ({converted} files converted, {kept} kept) ==")
    fresh = client.query(
        "SELECT request.page AS page, COUNT(*) AS errors FROM fresh_logs "
        "WHERE request.status = 500 GROUP BY page ORDER BY errors DESC, page LIMIT 3"
    )
    print(client.format_table(fresh))


if __name__ == "__main__":
    main()
