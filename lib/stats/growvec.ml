module Int = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 64) () = { data = Array.make (max 1 capacity) 0; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Growvec.Int.get: index out of bounds";
    t.data.(i)

  let length t = t.len
  let clear t = t.len <- 0
  let to_array t = Array.sub t.data 0 t.len
end

module Bool = struct
  type t = { mutable data : Bytes.t; mutable len : int }

  let create ?(capacity = 64) () = { data = Bytes.make (max 1 capacity) '\000'; len = 0 }

  let push t x =
    if t.len = Bytes.length t.data then begin
      let bigger = Bytes.make (2 * t.len) '\000' in
      Bytes.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    Bytes.set t.data t.len (if x then '\001' else '\000');
    t.len <- t.len + 1

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Growvec.Bool.get: index out of bounds";
    Bytes.get t.data i = '\001'

  let length t = t.len
  let clear t = t.len <- 0
  let to_array t =
    let a = Array.make t.len false in
    for i = 0 to t.len - 1 do
      if Bytes.unsafe_get t.data i = '\001' then a.(i) <- true
    done;
    a
end
