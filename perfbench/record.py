"""Record answer digests into answers.json.

    python3 perfbench/record.py

Runs every request of every workload and stores the digest of each answer
under its input key.  A key already recorded with another digest is
reported and nothing is written: answers change only on purpose, by
deleting the stale entries first.
"""

import json

from env import pin

pin()

import workloads  # noqa: E402

PATH = workloads.ANSWERS_FILE


def main():
    answers = json.loads(PATH.read_text()) if PATH.exists() else {}
    clashes = 0
    for name, builder in workloads.BUILDERS.items():
        table = answers.setdefault(name, {})
        for req in builder():
            got = workloads.digest(req.run())
            if table.setdefault(req.key, got) != got:
                print(f"{name} {req.key}: recorded {table[req.key]}, "
                      f"now {got}")
                clashes += 1
        print(f"{name}: {len(table)} answers", flush=True)
    if clashes:
        return 1
    PATH.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
