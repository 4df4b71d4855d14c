(* Persistent content-addressed result store.

   One file per digest under [dir/<first-2-hex>/<digest>.res].  Each
   entry is a small text header followed by an opaque payload:

     DBM-RUN-CACHE 1\n
     <version>\n
     <payload length in bytes>\n
     <16-hex FNV-1a checksum of the payload>\n
     <payload bytes>

   The version line is the caller's results-schema version: entries
   written by an older schema fail the equality check and read as
   misses, so stale formats self-invalidate without any migration.
   Anything malformed — wrong magic, short file, length mismatch,
   checksum mismatch, unreadable file — is a miss, never an error:
   a corrupt entry costs one recomputation and is then overwritten.

   Writes go to a uniquely-named temp file in the final directory and
   are renamed into place, so readers never observe a partial entry
   (rename is atomic on POSIX).  Concurrent writers of the same digest
   compute identical payloads (runs are deterministic), so whichever
   rename lands last is equivalent. *)

type t = { dir : string; version : string }

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let create ~dir ~version =
  mkdir_p dir;
  { dir; version }

let magic = "DBM-RUN-CACHE 1"

let entry_path t ~digest =
  let prefix = if String.length digest >= 2 then String.sub digest 0 2 else "xx" in
  Filename.concat (Filename.concat t.dir prefix) (digest ^ ".res")

let encode t payload =
  Printf.sprintf "%s\n%s\n%d\n%s\n%s" magic t.version (String.length payload)
    (Digest.fnv64_hex payload) payload

let decode t s =
  match
    let e1 = String.index_from s 0 '\n' in
    let e2 = String.index_from s (e1 + 1) '\n' in
    let e3 = String.index_from s (e2 + 1) '\n' in
    let e4 = String.index_from s (e3 + 1) '\n' in
    let header lo hi = String.sub s lo (hi - lo) in
    if header 0 e1 <> magic || header (e1 + 1) e2 <> t.version then None
    else
      let len = int_of_string (header (e2 + 1) e3) in
      if len < 0 || String.length s - (e4 + 1) <> len then None
      else
        let payload = String.sub s (e4 + 1) len in
        if String.equal (Digest.fnv64_hex payload) (header (e3 + 1) e4) then Some payload
        else None
  with
  | r -> r
  | exception _ -> None

let find t ~digest =
  match In_channel.with_open_bin (entry_path t ~digest) In_channel.input_all with
  | exception Sys_error _ -> None
  | s -> decode t s

let tmp_counter = Atomic.make 0

let store t ~digest payload =
  let path = entry_path t ~digest in
  mkdir_p (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path
      ((Domain.self () :> int))
      (Atomic.fetch_and_add tmp_counter 1)
  in
  match
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc (encode t payload));
    Sys.rename tmp path
  with
  | () -> ()
  | exception Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ())
