(** Global fingerprint mode for the exploration engines.

    By default world keys are the cheap fixed-width hashes of [Hashx];
    paranoid mode (the [--paranoid-fp] CLI flag) switches every engine
    back to the full canonical fingerprint strings, which are
    collision-free by construction. Diffing the distinct-world counts of
    the two modes on a workload bounds the hash-collision risk
    empirically. Witness digests never read this flag: they are the hex
    of the [Hashx] key ([World.hkey_nocur], [Tso.hkey_nocur]), so a
    witness captured in either mode is the same bytes and replays
    strictly in the other. *)

let flag = Atomic.make false
let set_paranoid b = Atomic.set flag b
let paranoid () = Atomic.get flag
