(* The filesystem every engine in the benchmark runs on: the same
   [Storage.Io.retrying Storage.Io.real] that [Session.open_engine] uses
   by default, wrapped to count the bytes handed to it. While tracing is
   on, every operation is also recorded as a "storage" span, which
   carries its duration, its byte count and the calling domain. *)

let written = Atomic.make 0
let wal_written = Atomic.make 0
let checkpoint_written = Atomic.make 0

(* Checkpoints committed: renames onto MANIFEST, the commit point of
   [Storage.Persist.save]. *)
let checkpoints = Atomic.make 0

let is_wal path = String.equal (Filename.basename path) "wal"

(* What an operation is part of: a journal append, or the checkpoint
   protocol (staged files, renames, directory fsyncs, journal reset). *)
let kind path = if is_wal path then "wal" else "checkpoint"

let add counter n = ignore (Atomic.fetch_and_add counter n)

let wrap (base : Storage.Io.t) : Storage.Io.t =
  let op ?(bytes = fun _ -> 0) name path f =
    Trace.span ~layer:"storage" ~name ~tag:(kind path) ~bytes f
  in
  {
    base with
    read_file = (fun p -> op ~bytes:String.length "read_file" p (fun () -> base.read_file p));
    write_file =
      (fun p c ->
        let n = String.length c in
        add written n;
        add (if is_wal p then wal_written else checkpoint_written) n;
        op ~bytes:(fun () -> n) "write_file" p (fun () -> base.write_file p c));
    append_file =
      (fun p c ->
        let n = String.length c in
        add written n;
        add (if is_wal p then wal_written else checkpoint_written) n;
        op ~bytes:(fun () -> n) "append_file" p (fun () -> base.append_file p c));
    rename =
      (fun s d ->
        op "rename" s (fun () -> base.rename s d);
        if String.equal (Filename.basename d) "MANIFEST" then Atomic.incr checkpoints);
    remove = (fun p -> op "remove" p (fun () -> base.remove p));
    fsync_dir = (fun p -> op "fsync_dir" p (fun () -> base.fsync_dir p));
  }

let default () = wrap (Storage.Io.retrying Storage.Io.real)
