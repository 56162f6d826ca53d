type t = { mutable s : int }

let step x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 17) in
  (x lxor (x lsl 5)) land 0x3FFF_FFFF

let make seed =
  (* splitmix-style finaliser, so seeds 1, 2, 3 start far apart *)
  let z = (seed + 0x9E37_79B9) land 0x3FFF_FFFF in
  let z = ((z lxor (z lsr 15)) * 0x2C1B_3C6D) land 0x3FFF_FFFF in
  let z = ((z lxor (z lsr 12)) * 0x297A_2D39) land 0x3FFF_FFFF in
  let z = z lxor (z lsr 15) in
  { s = (if z = 0 then 1 else z) }

let next t =
  let x = step t.s in
  t.s <- x;
  x

let below t bound = next t mod bound
let key t = next t

let byte_at ~key ~seq i =
  ((((seq * 0x9E37_79B1) lxor key) + (i * 0x85EB_CA6B)) lsr 11) land 0xff

let payload ~key ~seq len =
  let b = Bytes.create len in
  for i = 0 to 7 do
    Bytes.unsafe_set b i (Char.unsafe_chr ((seq lsr (8 * i)) land 0xff))
  done;
  for i = 8 to len - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (byte_at ~key ~seq i))
  done;
  Bytes.unsafe_to_string b

let seq s =
  if String.length s < 8 then -1
  else begin
    let seq = ref 0 in
    for i = 7 downto 0 do
      seq := (!seq lsl 8) lor Char.code (String.unsafe_get s i)
    done;
    !seq
  end

let check ~key s =
  let len = String.length s in
  if len < 8 then -1
  else begin
    let seq = ref 0 in
    for i = 7 downto 0 do
      seq := (!seq lsl 8) lor Char.code (String.unsafe_get s i)
    done;
    let seq = !seq in
    let ok = ref true and i = ref 8 in
    while !ok && !i < len do
      if Char.code (String.unsafe_get s !i) <> byte_at ~key ~seq !i then
        ok := false;
      incr i
    done;
    if !ok then seq else -1
  end
