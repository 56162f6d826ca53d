type frame = int

exception Bad_frame of { frame : int }
exception Out_of_frames of { capacity : int }

let () =
  Printexc.register_printer (function
    | Bad_frame { frame } ->
        Some (Printf.sprintf "Td_mem.Phys_mem.Bad_frame(frame %d)" frame)
    | Out_of_frames { capacity } ->
        Some (Printf.sprintf "Td_mem.Phys_mem.Out_of_frames(%d frames)" capacity)
    | _ -> None)

(* Frame [f]'s buffer lives at [pages.(f)]; [Bytes.empty] marks a free
   (or never allocated) slot. The array doubles on demand up to
   [capacity], so a large pool costs nothing until it is used.

   A frame nobody has written yet holds the shared [zero_page], which
   nothing writes: reads see zeros, and the first [page] or write gives
   the frame its own buffer. Most frames a world allocates are never
   touched, so this keeps them from costing 4 KiB each. *)
type t = {
  capacity : int;
  mutable pages : bytes array;
  mutable allocated : int;
  mutable next : frame;
  mutable free : frame list;
}

let zero_page = Bytes.make Layout.page_size '\000'

let create ?(frames = 65536) () =
  {
    capacity = frames;
    pages = Array.make (min frames 64) Bytes.empty;
    allocated = 0;
    next = 1;
    free = [];
  }

let install t f =
  let n = Array.length t.pages in
  if f >= n then begin
    let grown = Array.make (min t.capacity (max (2 * n) (f + 1))) Bytes.empty in
    Array.blit t.pages 0 grown 0 n;
    t.pages <- grown
  end;
  t.pages.(f) <- zero_page;
  t.allocated <- t.allocated + 1;
  f

let alloc_frame t =
  match t.free with
  | f :: rest ->
      t.free <- rest;
      install t f
  | [] ->
      if t.next >= t.capacity then raise (Out_of_frames { capacity = t.capacity });
      let f = t.next in
      t.next <- t.next + 1;
      install t f

let is_allocated t f =
  f >= 0 && f < Array.length t.pages && t.pages.(f) != Bytes.empty

let free_frame t f =
  if is_allocated t f then begin
    t.pages.(f) <- Bytes.empty;
    t.allocated <- t.allocated - 1;
    t.free <- f :: t.free
  end

let frames_allocated t = t.allocated

(* The frame's contents for reading: possibly [zero_page]. *)
let contents t f =
  if is_allocated t f then Array.unsafe_get t.pages f
  else raise (Bad_frame { frame = f })

let page t f =
  let b = contents t f in
  if b != zero_page then b
  else begin
    let b = Bytes.make Layout.page_size '\000' in
    t.pages.(f) <- b;
    b
  end

let check_bounds off w =
  if off < 0 || off + Td_misa.Width.bytes w > Layout.page_size then
    invalid_arg (Printf.sprintf "Phys_mem: offset %d crosses frame boundary" off)

let read t f off w =
  check_bounds off w;
  let b = contents t f in
  match w with
  | Td_misa.Width.W8 -> Char.code (Bytes.get b off)
  | Td_misa.Width.W16 -> Bytes.get_uint16_le b off
  | Td_misa.Width.W32 -> Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let write t f off w v =
  check_bounds off w;
  let b = page t f in
  match w with
  | Td_misa.Width.W8 -> Bytes.set b off (Char.chr (v land 0xff))
  | Td_misa.Width.W16 -> Bytes.set_uint16_le b off (v land 0xffff)
  | Td_misa.Width.W32 -> Bytes.set_int32_le b off (Int32.of_int v)

let read_bytes t f off len =
  if off < 0 || off + len > Layout.page_size then
    invalid_arg "Phys_mem.read_bytes: crosses frame boundary";
  Bytes.sub (contents t f) off len

let write_bytes t f off src =
  if off < 0 || off + Bytes.length src > Layout.page_size then
    invalid_arg "Phys_mem.write_bytes: crosses frame boundary";
  Bytes.blit src 0 (page t f) off (Bytes.length src)

let fill t f c = Bytes.fill (page t f) 0 Layout.page_size c
