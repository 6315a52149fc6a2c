#!/usr/bin/env python3
"""Passes when every tid that carries an event in a Chrome trace also has a
thread_name metadata event.

Usage: trace_names_every_thread.py TRACE.json
"""
import json
import sys

events = json.load(open(sys.argv[1]))["traceEvents"]
named = {e["tid"] for e in events if e.get("name") == "thread_name"}
used = {e["tid"] for e in events if e.get("ph") != "M"}
unnamed = sorted(used - named)
if not used or unnamed:
    print(f"{len(used)} tids carry events; unnamed: {unnamed}")
    sys.exit(1)
print(f"all {len(used)} tids that carry events are named")
