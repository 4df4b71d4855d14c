(* Growable array of records.  [buf.(start .. start+durable-1)] holds the
   retained durable records oldest-first, followed by
   [buf.(start+durable .. start+durable+pending-1)] for the unsynced tail.
   Truncation advances [start] (clearing slots for the GC) instead of
   rebuilding a list; the live region is compacted to the front before the
   buffer grows, so wasted prefix space is bounded by the live size. *)
type t = {
  mutable buf : string array;
  mutable start : int;  (* index of the oldest retained durable record *)
  mutable durable : int;  (* retained durable record count *)
  mutable pending : int;  (* unsynced tail length, stored after durable *)
  mutable base : int;  (* sequence number of the oldest retained record *)
  mutable sync_count : int;
}

let create () =
  { buf = Array.make 16 ""; start = 0; durable = 0; pending = 0; base = 0; sync_count = 0 }

let live t = t.durable + t.pending

let ensure_room t =
  let used = t.start + live t in
  if used >= Array.length t.buf then begin
    if t.start > 0 then begin
      (* reclaim the truncated prefix before considering a realloc *)
      Array.blit t.buf t.start t.buf 0 (live t);
      Array.fill t.buf (live t) t.start "";
      t.start <- 0
    end;
    if live t >= Array.length t.buf then begin
      let bigger = Array.make (2 * Array.length t.buf) "" in
      Array.blit t.buf 0 bigger 0 (live t);
      t.buf <- bigger
    end
  end

let append t r =
  let seq = t.base + t.durable + t.pending in
  ensure_room t;
  t.buf.(t.start + live t) <- r;
  t.pending <- t.pending + 1;
  seq

(* A sync with nothing pending makes nothing durable: no force, not
   counted. *)
let sync t =
  if t.pending > 0 then begin
    t.sync_count <- t.sync_count + 1;
    t.durable <- t.durable + t.pending;
    t.pending <- 0
  end

let crash t =
  Array.fill t.buf (t.start + t.durable) t.pending "";
  t.pending <- 0

let length t = t.durable

let iter_all f t =
  for i = t.start to t.start + t.durable - 1 do
    f t.buf.(i)
  done

let iter_live f t =
  for i = t.start to t.start + live t - 1 do
    f t.buf.(i)
  done

let read_all t =
  let acc = ref [] in
  for i = t.start + t.durable - 1 downto t.start do
    acc := t.buf.(i) :: !acc
  done;
  !acc

let to_array t = Array.sub t.buf t.start t.durable

let synced t = t.base + t.durable

let sync_count t = t.sync_count

let truncate t ~keep_from =
  if keep_from < t.base then ()
  else if keep_from > t.base + t.durable then
    invalid_arg "Journal.truncate: keep_from beyond the synced records"
  else begin
    let drop = keep_from - t.base in
    Array.fill t.buf t.start drop "";
    t.start <- t.start + drop;
    t.durable <- t.durable - drop;
    t.base <- keep_from
  end
