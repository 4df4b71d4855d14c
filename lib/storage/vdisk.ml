(* [current.(p)] is what a read of page [p] sees: [stable.(p)] itself
   while the page is clean, else the private buffer of a page listed in
   [dirty]. *)
type t = {
  page_size : int;
  stable : bytes array;
  current : bytes array;
  mutable dirty : int list;
  mutable reads : int;
  mutable writes : int;
}

let create ~pages ~page_size () =
  if pages <= 0 || page_size <= 0 then invalid_arg "Vdisk.create: non-positive size";
  let stable = Array.init pages (fun _ -> Bytes.make page_size '\000') in
  { page_size; stable; current = Array.copy stable; dirty = []; reads = 0; writes = 0 }

let pages t = Array.length t.stable

let check_page t p =
  if p < 0 || p >= Array.length t.stable then
    invalid_arg (Printf.sprintf "Vdisk: page %d out of range [0,%d)" p (Array.length t.stable))

let read_ro t p =
  check_page t p;
  t.reads <- t.reads + 1;
  t.current.(p)

let read t p = Bytes.copy (read_ro t p)

let write t p b =
  check_page t p;
  if Bytes.length b <> t.page_size then
    invalid_arg
      (Printf.sprintf "Vdisk.write: buffer is %d bytes, page size is %d" (Bytes.length b)
         t.page_size);
  t.writes <- t.writes + 1;
  if t.current.(p) == t.stable.(p) then begin
    t.current.(p) <- Bytes.copy b;
    t.dirty <- p :: t.dirty
  end
  else Bytes.blit b 0 t.current.(p) 0 t.page_size

let sync t =
  List.iter (fun p -> t.stable.(p) <- t.current.(p)) t.dirty;
  t.dirty <- []

let crash t =
  List.iter (fun p -> t.current.(p) <- t.stable.(p)) t.dirty;
  t.dirty <- []

let unsynced_pages t = List.length t.dirty

let reads t = t.reads
let writes t = t.writes
